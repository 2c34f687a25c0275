module Series = struct
  (* The running mean (Welford's update) and max sit in an all-float
     record, which OCaml stores flat: updating them on every [add] boxes
     nothing (float fields of a record that also holds an [int] are boxed
     on each store). *)
  type acc = { mutable mean : float; mutable max_v : float }

  (* The samples are [data.(0 .. len - 1)], in no particular order: a
     percentile reorders them in place. [data] stays the shared empty
     array until the first [add], which allocates [capacity] slots. *)
  type t = { mutable data : float array; mutable len : int; capacity : int; acc : acc }

  let create ?(capacity = 64) () =
    {
      data = [||];
      len = 0;
      capacity = Stdlib.max 1 capacity;
      acc = { mean = 0.0; max_v = neg_infinity };
    }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (if t.len = 0 then t.capacity else 2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1;
    let a = t.acc in
    a.mean <- a.mean +. ((x -. a.mean) /. float_of_int t.len);
    if x > a.max_v then a.max_v <- x

  let count t = t.len
  let mean t = if t.len = 0 then 0.0 else t.acc.mean
  let max t = t.acc.max_v

  (* Specialised to [float array] in [Float.compare] order: a polymorphic
     comparison boxes every element it reads from a float array. *)
  let swap (a : float array) i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x

  (* Quickselect: afterwards [a.(k)] is the element a sort of
     [a.(lo .. hi)] would put there, with nothing greater before it and
     nothing smaller after it. The pivot is the median of three, and a
     Hoare partition splits runs of equal samples evenly. A range still
     unresolved after [depth] partitions is sorted outright (by the
     stdlib's heapsort, which boxes, but bounds the worst case by
     O(n log n)). *)
  let rec select (a : float array) lo hi k depth =
    if lo < hi then
      if depth = 0 then begin
        let rest = Array.sub a lo (hi - lo + 1) in
        Array.sort Float.compare rest;
        Array.blit rest 0 a lo (hi - lo + 1)
      end
      else begin
        let mid = lo + ((hi - lo) / 2) in
        if Float.compare a.(mid) a.(lo) < 0 then swap a mid lo;
        if Float.compare a.(hi) a.(lo) < 0 then swap a hi lo;
        if Float.compare a.(hi) a.(mid) < 0 then swap a hi mid;
        let pivot = a.(mid) in
        let i = ref lo and j = ref hi in
        while !i <= !j do
          while Float.compare a.(!i) pivot < 0 do
            incr i
          done;
          while Float.compare pivot a.(!j) < 0 do
            decr j
          done;
          if !i <= !j then begin
            swap a !i !j;
            incr i;
            decr j
          end
        done;
        (* [a.(lo .. !j)] <= pivot <= [a.(!i .. hi)], and anything
           between equals the pivot. *)
        if k <= !j then select a lo !j k (depth - 1)
        else if k >= !i then select a !i hi k (depth - 1)
      end

  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

  let percentile t p =
    if t.len = 0 then invalid_arg "Sim_stats.Series.percentile: empty series";
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.len)) - 1 in
    let rank = Stdlib.max 0 (Stdlib.min (t.len - 1) rank) in
    select t.data 0 (t.len - 1) rank (2 * (log2 t.len + 1));
    t.data.(rank)
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
