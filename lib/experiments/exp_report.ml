let fmt_table ~header ~rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width i =
    List.fold_left
      (fun acc row -> match List.nth_opt row i with Some s -> max acc (String.length s) | None -> acc)
      0 all
  in
  let widths = List.init cols width in
  let render_row row =
    List.mapi
      (fun i w ->
        let cell = match List.nth_opt row i with Some s -> s | None -> "" in
        cell ^ String.make (w - String.length cell) ' ')
      widths
    |> String.concat "  "
  in
  let rule = String.concat "--" (List.map (fun w -> String.make w '-') widths) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (render_row header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (render_row r);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let us v = Printf.sprintf "%.1f" v
let seconds v = Printf.sprintf "%.2f" v

type check = { what : string; pass : bool; detail : string }

let check ~what ~pass ~detail = { what; pass; detail }

let render_checks checks =
  let buf = Buffer.create 256 in
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  [%s] %s%s\n"
           (if c.pass then "PASS" else "FAIL")
           c.what
           (if c.detail = "" then "" else " — " ^ c.detail)))
    checks;
  Buffer.contents buf

let all_pass checks = List.for_all (fun c -> c.pass) checks
