type event = { at : float; fn : int }

type t = {
  functions : int;
  alpha : float;
  horizon : float;
  arrival : string;
  rate : float;
  seed : int64;
  events : event array;
}

(* Arrivals and popularity draw from separate streams split off the
   seed, so adding a function to the set cannot shift arrival times. *)
let synthesize ~functions ~alpha ~arrival ~horizon ~seed =
  let root = Sim.Prng.create seed in
  let arrival_rng = Sim.Prng.split root in
  let pop_rng = Sim.Prng.split root in
  let zipf = Zipf.create ~alpha ~n:functions in
  let at, len = Arrival.instants arrival ~horizon arrival_rng in
  {
    functions;
    alpha;
    horizon;
    arrival = Arrival.describe arrival;
    rate = Arrival.mean_rate arrival;
    seed;
    events =
      Array.init len (fun i -> { at = at.(i); fn = Zipf.sample zipf pop_rng });
  }

let equal a b =
  a.functions = b.functions
  && a.alpha = b.alpha
  && a.horizon = b.horizon
  && String.equal a.arrival b.arrival
  && a.rate = b.rate
  && Int64.equal a.seed b.seed
  && Array.length a.events = Array.length b.events
  && Array.for_all2 (fun x y -> x.at = y.at && x.fn = y.fn) a.events b.events

let schema = "seuss-load-trace/1"

let header t =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String schema);
      ("functions", Obs.Json.Int t.functions);
      ("alpha", Obs.Json.Float t.alpha);
      ("horizon", Obs.Json.Float t.horizon);
      ("arrival", Obs.Json.String t.arrival);
      ("rate", Obs.Json.Float t.rate);
      ("seed", Obs.Json.String (Int64.to_string t.seed));
      ("events", Obs.Json.Int (Array.length t.events));
    ]

let to_jsonl t =
  let buf = Buffer.create (64 * (Array.length t.events + 1)) in
  Buffer.add_string buf (Obs.Json.to_string (header t));
  Buffer.add_char buf '\n';
  Array.iter
    (fun e ->
      Buffer.add_string buf
        (Obs.Json.to_string
           (Obs.Json.Obj
              [ ("at", Obs.Json.Float e.at); ("fn", Obs.Json.Int e.fn) ]));
      Buffer.add_char buf '\n')
    t.events;
  Buffer.contents buf

let ( let* ) r f = Result.bind r f

let field name conv j =
  match Option.bind (Obs.Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "trace header: missing or bad %S" name)

let of_jsonl s =
  let lines =
    String.split_on_char '\n' s
    |> List.filter (fun l -> not (String.equal (String.trim l) ""))
  in
  match lines with
  | [] -> Error "trace: empty document"
  | hd :: rest ->
      let* h =
        Result.map_error (fun e -> "trace header: " ^ e) (Obs.Json.of_string hd)
      in
      let* sch = field "schema" Obs.Json.to_str h in
      if not (String.equal sch schema) then
        Error (Printf.sprintf "trace: unknown schema %S" sch)
      else
        let* functions = field "functions" Obs.Json.to_int h in
        let* alpha = field "alpha" Obs.Json.to_float h in
        let* horizon = field "horizon" Obs.Json.to_float h in
        let* arrival = field "arrival" Obs.Json.to_str h in
        let* rate = field "rate" Obs.Json.to_float h in
        let* seed_s = field "seed" Obs.Json.to_str h in
        let* seed =
          match Int64.of_string_opt seed_s with
          | Some v -> Ok v
          | None -> Error "trace header: seed is not an int64"
        in
        let* count = field "events" Obs.Json.to_int h in
        if count <> List.length rest then
          Error
            (Printf.sprintf "trace: header promises %d events, found %d" count
               (List.length rest))
        else
          let events = Array.make count { at = 0.0; fn = 0 } in
          let rec fill i = function
            | [] -> Ok ()
            | line :: rest -> (
                match Obs.Json.of_string line with
                | Error e -> Error (Printf.sprintf "trace event %d: %s" i e)
                | Ok j ->
                    let* at = field "at" Obs.Json.to_float j in
                    let* fn = field "fn" Obs.Json.to_int j in
                    if fn < 0 || fn >= functions then
                      Error
                        (Printf.sprintf "trace event %d: fn %d out of range" i fn)
                    else begin
                      events.(i) <- { at; fn };
                      fill (i + 1) rest
                    end)
          in
          let* () = fill 0 rest in
          Ok { functions; alpha; horizon; arrival; rate; seed; events }

let save ~path t =
  let oc = open_out path in
  output_string oc (to_jsonl t);
  close_out oc

let load ~path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      of_jsonl body
