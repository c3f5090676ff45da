type event =
  | Complete of {
      name : string;
      cat : string;
      ts_us : float;
      dur_us : float;
      pid : int;
      tid : int;
      args : (string * Json.t) list;
    }
  | Instant of {
      name : string;
      cat : string;
      ts_us : float;
      pid : int;
      tid : int;
      args : (string * Json.t) list;
    }
  | Process_name of { pid : int; name : string }
  | Thread_name of { pid : int; tid : int; name : string }

let args_field = function
  | [] -> []
  | args -> [ ("args", Json.Obj args) ]

let event_to_json = function
  | Complete { name; cat; ts_us; dur_us; pid; tid; args } ->
      Json.Obj
        ([
           ("name", Json.String name);
           ("cat", Json.String cat);
           ("ph", Json.String "X");
           ("ts", Json.Float ts_us);
           ("dur", Json.Float dur_us);
           ("pid", Json.Int pid);
           ("tid", Json.Int tid);
         ]
        @ args_field args)
  | Instant { name; cat; ts_us; pid; tid; args } ->
      Json.Obj
        ([
           ("name", Json.String name);
           ("cat", Json.String cat);
           ("ph", Json.String "i");
           ("ts", Json.Float ts_us);
           ("pid", Json.Int pid);
           ("tid", Json.Int tid);
           ("s", Json.String "t");
         ]
        @ args_field args)
  | Process_name { pid; name } ->
      Json.Obj
        [
          ("name", Json.String "process_name");
          ("ph", Json.String "M");
          ("ts", Json.Float 0.0);
          ("pid", Json.Int pid);
          ("tid", Json.Int 0);
          ("args", Json.Obj [ ("name", Json.String name) ]);
        ]
  | Thread_name { pid; tid; name } ->
      Json.Obj
        [
          ("name", Json.String "thread_name");
          ("ph", Json.String "M");
          ("ts", Json.Float 0.0);
          ("pid", Json.Int pid);
          ("tid", Json.Int tid);
          ("args", Json.Obj [ ("name", Json.String name) ]);
        ]

let trace events =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event_to_json events));
      ("displayTimeUnit", Json.String "ms");
    ]
