(* Domain-parallel experiment driver.

   Every experiment in this repository is a deterministic, self-contained
   function: it builds its own machine, engine and RNGs, and returns a
   rendered string or record. That makes the set of experiments
   embarrassingly parallel — the only shared state was Sim_engine's
   "current engine", which is domain-local. This module fans a fixed list
   of such thunks out over OCaml 5 domains and returns the results in
   input order, so the joined output of a parallel run is byte-identical
   to the sequential one. *)

let default_jobs () = Domain.recommended_domain_count ()

let jobs_of_string s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> Ok n
  | _ -> Error (Printf.sprintf "invalid value '%s', expected a positive integer" s)

let map ~jobs tasks =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then Array.to_list (Array.map (fun f -> f ()) tasks)
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Work-stealing by atomic counter: domains pull the next unclaimed
       task; results land at the task's own index, so completion order
       never affects output order. *)
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let r =
          try Ok (tasks.(i) ())
          with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        results.(i) <- Some r;
        worker ()
      end
    in
    let helpers = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join helpers;
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end

let concat ~jobs ~sep tasks = String.concat sep (map ~jobs tasks)
