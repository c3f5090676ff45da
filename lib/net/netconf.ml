type link = { latency : float; bandwidth : float; per_message : float }

let gbit10 = 10.0 *. 1e9 /. 8.0

let lan = { latency = 80e-6; bandwidth = gbit10; per_message = 10e-6 }
let internal = { latency = 5e-6; bandwidth = 4.0 *. gbit10; per_message = 3e-6 }
let loopback = { latency = 2e-6; bandwidth = 8.0 *. gbit10; per_message = 1e-6 }
