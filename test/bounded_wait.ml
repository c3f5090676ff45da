let until ~what ~within ?(poll = 0.01) cond =
  let engine = Sim.Engine.self () in
  let deadline = Sim.Engine.now engine +. within in
  while not (cond ()) do
    if Sim.Engine.now engine >= deadline then
      Alcotest.failf "still waiting for %s after %g simulated seconds" what
        within;
    Sim.Engine.sleep poll
  done
