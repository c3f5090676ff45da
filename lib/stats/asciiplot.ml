type scale = Linear | Log

type series = { label : string; mark : char; points : (float * float) list }

type t = {
  width : int;
  height : int;
  xscale : scale;
  yscale : scale;
  title : string;
  xlabel : string;
  ylabel : string;
  mutable rev_series : series list;
}

let create ?(width = 72) ?(height = 20) ?(xscale = Linear) ?(yscale = Linear)
    ~title ~xlabel ~ylabel () =
  if width < 10 || height < 4 then invalid_arg "Asciiplot.create: too small";
  { width; height; xscale; yscale; title; xlabel; ylabel; rev_series = [] }

let add_series t ~label ~mark points =
  t.rev_series <- { label; mark; points } :: t.rev_series

let transform scale v = match scale with Linear -> v | Log -> log10 v

let visible scale v = match scale with Linear -> true | Log -> v > 0.0

let render t =
  let series = List.rev t.rev_series in
  let pts =
    List.concat_map
      (fun s ->
        List.filter
          (fun (x, y) -> visible t.xscale x && visible t.yscale y)
          s.points)
      series
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%s\n" t.title);
  if pts = [] then begin
    Buffer.add_string buf "  (no data)\n";
    Buffer.contents buf
  end
  else begin
    let xs = List.map (fun (x, _) -> transform t.xscale x) pts in
    let ys = List.map (fun (_, y) -> transform t.yscale y) pts in
    let fold f = function [] -> 0.0 | h :: rest -> List.fold_left f h rest in
    let xmin = fold Float.min xs and xmax = fold Float.max xs in
    let ymin = fold Float.min ys and ymax = fold Float.max ys in
    let xspan = if xmax > xmin then xmax -. xmin else 1.0 in
    let yspan = if ymax > ymin then ymax -. ymin else 1.0 in
    let grid = Array.make_matrix t.height t.width ' ' in
    let place mark (x, y) =
      if visible t.xscale x && visible t.yscale y then begin
        let tx = transform t.xscale x and ty = transform t.yscale y in
        let col =
          int_of_float ((tx -. xmin) /. xspan *. float_of_int (t.width - 1))
        in
        let row =
          t.height - 1
          - int_of_float ((ty -. ymin) /. yspan *. float_of_int (t.height - 1))
        in
        let col = max 0 (min (t.width - 1) col) in
        let row = max 0 (min (t.height - 1) row) in
        (* Later series overwrite; failures are usually plotted last so
           their 'x' marks stay visible. *)
        grid.(row).(col) <- mark
      end
    in
    List.iter (fun s -> List.iter (place s.mark) s.points) series;
    let untransform scale v = match scale with Linear -> v | Log -> 10.0 ** v in
    let ytick row =
      let frac = float_of_int (t.height - 1 - row) /. float_of_int (t.height - 1) in
      untransform t.yscale (ymin +. (frac *. yspan))
    in
    for row = 0 to t.height - 1 do
      let label =
        if row = 0 || row = t.height - 1 || row = t.height / 2 then
          Printf.sprintf "%10.3g " (ytick row)
        else String.make 11 ' '
      in
      Buffer.add_string buf label;
      Buffer.add_char buf '|';
      Buffer.add_string buf (String.init t.width (fun c -> grid.(row).(c)));
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf (String.make 11 ' ');
    Buffer.add_char buf '+';
    Buffer.add_string buf (String.make t.width '-');
    Buffer.add_char buf '\n';
    let x_at frac = untransform t.xscale (xmin +. (frac *. xspan)) in
    Buffer.add_string buf
      (Printf.sprintf "%11s%-12.4g%*.4g\n" "" (x_at 0.0) (t.width - 12)
         (x_at 1.0));
    Buffer.add_string buf
      (Printf.sprintf "  x: %s%s, y: %s%s\n" t.xlabel
         (match t.xscale with Log -> " (log)" | Linear -> "")
         t.ylabel
         (match t.yscale with Log -> " (log)" | Linear -> ""));
    let visible_points s =
      List.length
        (List.filter
           (fun (x, y) -> visible t.xscale x && visible t.yscale y)
           s.points)
    in
    List.iter
      (fun s ->
        let n = visible_points s in
        if n > 0 then
          Buffer.add_string buf
            (Printf.sprintf "  '%c' = %s (%d points)\n" s.mark s.label n))
      series;
    Buffer.contents buf
  end
