module Series = struct
  (* The running mean (Welford's update) and max sit in an all-float
     record, which OCaml stores flat: updating them on every [add] boxes
     nothing (float fields of a record that also holds an [int] are boxed
     on each store). *)
  type acc = { mutable mean : float; mutable max_v : float }

  (* [sorted]: the first [len] samples are in sorted order, so a
     percentile reads them in place; an [add] clears it. *)
  type t = {
    mutable data : float array;
    mutable len : int;
    mutable sorted : bool;
    acc : acc;
  }

  let create () =
    { data = Array.make 64 0.0; len = 0; sorted = true; acc = { mean = 0.0; max_v = neg_infinity } }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1;
    t.sorted <- false;
    let a = t.acc in
    a.mean <- a.mean +. ((x -. a.mean) /. float_of_int t.len);
    if x > a.max_v then a.max_v <- x

  let count t = t.len
  let mean t = if t.len = 0 then 0.0 else t.acc.mean
  let max t = t.acc.max_v

  (* Heapsort in [Float.compare] order, specialised to [float array]: a
     polymorphic sort boxes every element it reads from a float array. *)
  let rec sift_down (a : float array) i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c = if l + 1 < n && Float.compare a.(l) a.(l + 1) < 0 then l + 1 else l in
      if Float.compare a.(i) a.(c) < 0 then begin
        let x = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- x;
        sift_down a c n
      end
    end

  let sort (a : float array) n =
    for i = (n / 2) - 1 downto 0 do
      sift_down a i n
    done;
    for last = n - 1 downto 1 do
      let x = a.(0) in
      a.(0) <- a.(last);
      a.(last) <- x;
      sift_down a 0 last
    done

  let percentile t p =
    if t.len = 0 then invalid_arg "Sim_stats.Series.percentile: empty series";
    if not t.sorted then begin
      sort t.data t.len;
      t.sorted <- true
    end;
    let rank =
      int_of_float (ceil (p /. 100.0 *. float_of_int t.len)) - 1
    in
    let rank = Stdlib.max 0 (Stdlib.min (t.len - 1) rank) in
    t.data.(rank)
end

module Counters = struct
  type t = (string, int) Hashtbl.t

  let create () = Hashtbl.create 16

  let incr ?(by = 1) t name =
    Hashtbl.replace t name ((try Hashtbl.find t name with Not_found -> 0) + by)

  let get t name = try Hashtbl.find t name with Not_found -> 0

  let to_list t =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let total t = Hashtbl.fold (fun _ v acc -> acc + v) t 0
  let clear t = Hashtbl.reset t
end

module Time_weighted = struct
  type t = {
    mutable last_time : float;
    mutable current : float;
    mutable integral : float;
    start : float;
  }

  let create ~now ~init = { last_time = now; current = init; integral = 0.0; start = now }

  let advance t now =
    if now > t.last_time then begin
      t.integral <- t.integral +. (t.current *. (now -. t.last_time));
      t.last_time <- now
    end

  let set t ~now v =
    advance t now;
    t.current <- v

  let average t ~now =
    advance t now;
    let elapsed = t.last_time -. t.start in
    if elapsed <= 0.0 then t.current else t.integral /. elapsed
end
