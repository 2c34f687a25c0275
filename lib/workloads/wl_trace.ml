type op =
  | Compute of float
  | Open_input of { file : int; kb : int }
  | Open_output of { file : int }
  | Read_seq of { file : int; kb : int }
  | Append of { file : int; kb : int }
  | Touch_heap of { pages : int }
  | Rescan_heap of { passes : int }
  | Close of { file : int }
  | Admin of { requests : int }

type t = {
  name : string;
  ops : op list;
  heap_pages : int;
  vpp_library_delta_us : float;
}

let sum f t = List.fold_left (fun acc op -> acc + f op) 0 t.ops

let total_heap_touches t =
  sum (function Touch_heap { pages } -> pages | _ -> 0) t

let total_read_kb t = sum (function Read_seq { kb; _ } -> kb | _ -> 0) t
let total_append_kb t = sum (function Append { kb; _ } -> kb | _ -> 0) t

let input_files t =
  List.filter_map (function Open_input { file; kb } -> Some (file, kb) | _ -> None) t.ops

let output_files t =
  List.filter_map (function Open_output { file } -> Some file | _ -> None) t.ops
