type event = { time : float; tag : string; detail : string }

(* Newest first. *)
type t = { on : bool; mutable events : event list }

let create ?(enabled = true) () = { on = enabled; events = [] }
let enabled t = t.on
let emit t ~time ~tag detail = if t.on then t.events <- { time; tag; detail } :: t.events
let tags t = List.rev_map (fun e -> e.tag) t.events
let clear t = t.events <- []

let dump t =
  String.concat ""
    (List.rev_map (fun e -> Printf.sprintf "[%12.2f us] %-24s %s\n" e.time e.tag e.detail) t.events)
