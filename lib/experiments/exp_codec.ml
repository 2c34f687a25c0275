module J = Sim_json

(* A decode error carries the path to the failing field and a message;
   [dec] joins them. *)
type error = string * string

type 'a t = { enc : 'a -> J.t; dec : J.t -> ('a, error) result }

let enc c = c.enc

let dec c j =
  match c.dec j with
  | Ok v -> Ok v
  | Error ("", msg) -> Error msg
  | Error (path, msg) -> Error (path ^ ": " ^ msg)

let print c v = J.to_string ~indent:true (c.enc v) ^ "\n"

(* Prefix a path segment: a field name, or a list index "[i]". *)
let at seg = function
  | Ok _ as ok -> ok
  | Error (path, msg) ->
      let sep = if path = "" || path.[0] = '[' then "" else "." in
      Error (seg ^ sep ^ path, msg)

let leaf what enc proj =
  let dec j = match proj j with Some v -> Ok v | None -> Error ("", "expected " ^ what) in
  { enc; dec }

let float = leaf "a number" (fun v -> J.Num v) J.to_float
let bool = leaf "a boolean" (fun b -> J.Bool b) J.to_bool
let string = leaf "a string" (fun s -> J.Str s) J.to_str

let int =
  leaf "an integer"
    (fun i -> J.Num (float_of_int i))
    (function
      | J.Num v when Float.is_integer v && Float.abs v < 0x1p62 -> Some (int_of_float v)
      | _ -> None)

let list c =
  let rec items i = function
    | [] -> Ok []
    | j :: rest -> (
        match at (Printf.sprintf "[%d]" i) (c.dec j) with
        | Error e -> Error e
        | Ok v -> Result.map (fun vs -> v :: vs) (items (i + 1) rest))
  in
  {
    enc = (fun l -> J.List (List.map c.enc l));
    dec = (function J.List l -> items 0 l | _ -> Error ("", "expected a list"));
  }

let where what ok c =
  { c with dec = (fun j -> match c.dec j with Ok v when not (ok v) -> Error ("", what) | r -> r) }

(* Encoders are kept newest first; [build] feeds decoded fields to the
   constructor in declaration order. *)
type ('r, 'k) obj = {
  encs : ('r -> string * J.t) list;
  build : (string * J.t) list -> ('k, error) result;
}

let obj k = { encs = []; build = (fun _ -> Ok k) }
let out name c get o = { o with encs = (fun r -> (name, c.enc (get r))) :: o.encs }

let mem name c get o =
  {
    encs = (fun r -> (name, c.enc (get r))) :: o.encs;
    build =
      (fun fields ->
        match o.build fields with
        | Error e -> Error e
        | Ok k -> (
            match List.assoc_opt name fields with
            | None -> Error (name, "missing")
            | Some j -> Result.map k (at name (c.dec j))));
  }

let tag name value o =
  {
    encs = (fun _ -> (name, J.Str value)) :: o.encs;
    build =
      (fun fields ->
        match List.assoc_opt name fields with
        | Some (J.Str v) when v = value -> o.build fields
        | _ -> Error (name, Printf.sprintf "expected %S" value));
  }

let splice frag get o =
  {
    encs = List.map (fun f r -> f (get r)) frag.encs @ o.encs;
    build =
      (fun fields ->
        match o.build fields with
        | Error e -> Error e
        | Ok k -> Result.map k (frag.build fields));
  }

let finish o =
  let encs = List.rev o.encs in
  {
    enc = (fun r -> J.Obj (List.map (fun f -> f r) encs));
    dec = (function J.Obj fields -> o.build fields | _ -> Error ("", "expected an object"));
  }

let observation =
  obj
    (fun o_frames o_touches o_faults o_migrate_calls o_migrated_pages o_events o_sim_us
         o_conserved ->
      { Epcm_kernel.o_frames; o_touches; o_faults; o_migrate_calls; o_migrated_pages; o_events;
        o_sim_us; o_conserved })
  |> mem "frames" int (fun o -> o.Epcm_kernel.o_frames)
  |> mem "touches" int (fun o -> o.Epcm_kernel.o_touches)
  |> mem "faults" int (fun o -> o.Epcm_kernel.o_faults)
  |> mem "migrate_calls" int (fun o -> o.Epcm_kernel.o_migrate_calls)
  |> mem "migrated_pages" int (fun o -> o.Epcm_kernel.o_migrated_pages)
  |> mem "events" int (fun o -> o.Epcm_kernel.o_events)
  |> mem "sim_us" float (fun o -> o.Epcm_kernel.o_sim_us)
  |> mem "conserved" bool (fun o -> o.Epcm_kernel.o_conserved)

let check =
  obj (fun what pass detail -> { Exp_report.what; pass; detail })
  |> mem "what" string (fun c -> c.Exp_report.what)
  |> mem "pass" bool (fun c -> c.Exp_report.pass)
  |> mem "detail" string (fun c -> c.Exp_report.detail)
  |> finish
