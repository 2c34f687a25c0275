module K = Epcm_kernel
module Mgr = Epcm_manager
module G = Mgr_generic
module Engine = Sim_engine
module M = Spcm_market
module Hist = Sim_metrics.Hist

type saver_backing = Memory | Disk

type config = {
  c_name : string;
  c_seed : int64;
  c_memory_bytes : int;
  c_page_size : int;
  c_tenants : int;
  c_mean_interarrival_us : float;
  c_pages_lo : int;
  c_pages_hi : int;
  c_hold_us_lo : float;
  c_hold_us_hi : float;
  c_premium_every : int;
  c_poor_every : int;
  c_slo_us : float;
  c_savers : int;
  c_saver_pages : int;
  c_saver_slice_us : float;
  c_saver_idle_us : float;
  c_saver_backing : saver_backing;
  c_sweep_every_us : float;
  c_market : Spcm_market.config;
  c_chaos : Sim_chaos.spec option;
}

type class_slo = {
  sc_class : string;
  sc_tenants : int;
  sc_completed : int;
  sc_refused : int;
  sc_samples : int;
  sc_p50_us : float;
  sc_p99_us : float;
  sc_p999_us : float;
  sc_max_us : float;
  sc_violations : int;
}

type result = {
  r_name : string;
  r_frames : int;
  r_tenants : int;
  r_savers : int;
  r_completed : int;
  r_refused : int;
  r_defer_events : int;
  r_granted_frames : int;
  r_saver_cycles : int;
  r_saver_starved : int;
  r_faults : int;
  r_events : int;
  r_sim_us : float;
  r_slo_us : float;
  r_slos : class_slo list;
  r_accounts : int;
  r_min_balance : float;
  r_billable_s : float;
  r_conservation_residual : float;
  r_io_failures : int;
  r_conserved : bool;
}

(* Rates chosen so every class stays solvent except the poor slice, which
   is refused outright: income dominates holding + I/O charges for normal,
   premium and saver accounts (the exp checks pin min balance >= 0). *)
let market_config =
  {
    M.charge_rate = 4.0;
    default_income = 25.0;
    savings_tax_rate = 0.02;
    savings_tax_threshold = 50.0;
    io_charge = 0.001;
    free_when_idle = true;
  }

let small =
  {
    c_name = "small";
    c_seed = 42L;
    c_memory_bytes = 8 * 1024 * 1024;
    c_page_size = 4096;
    c_tenants = 1000;
    c_mean_interarrival_us = 1_000.0;
    c_pages_lo = 4;
    c_pages_hi = 32;
    c_hold_us_lo = 1_000.0;
    c_hold_us_hi = 10_000.0;
    c_premium_every = 20;
    c_poor_every = 50;
    c_slo_us = 5_000.0;
    c_savers = 3;
    c_saver_pages = 600;
    c_saver_slice_us = 20_000.0;
    c_saver_idle_us = 10_000.0;
    c_saver_backing = Memory;
    c_sweep_every_us = 2_000.0;
    c_market = market_config;
    c_chaos = None;
  }

let production =
  {
    small with
    c_name = "production";
    c_seed = 4242L;
    c_memory_bytes = 20 * 1024 * 1024;
    c_tenants = 5000;
    c_mean_interarrival_us = 1_000.0;
    c_hold_us_lo = 2_000.0;
    c_hold_us_hi = 20_000.0;
    c_savers = 6;
    c_saver_pages = 780;
  }

type tenant_class = Normal | Premium | Poor

let class_name = function Normal -> "interactive" | Premium -> "premium" | Poor -> "poor"

type tenant = {
  t_index : int;
  t_class : tenant_class;
  mutable t_latency_us : float;  (* acquire to resident; 0 until sampled *)
  t_pages : int;
  t_hold_us : float;
  t_income : float;
  t_priority : float;
  mutable t_completed : bool;
  mutable t_refused : bool;
}

let draw_tenants cfg rng =
  Array.init cfg.c_tenants (fun i ->
      (* Draws happen in index order, before any process runs, so the
         population is a pure function of the seed regardless of how
         arrivals interleave. *)
      let pages = cfg.c_pages_lo + Sim_rng.int rng (cfg.c_pages_hi - cfg.c_pages_lo + 1) in
      let hold = Sim_rng.uniform rng ~lo:cfg.c_hold_us_lo ~hi:cfg.c_hold_us_hi in
      let cls =
        if (i + 1) mod cfg.c_poor_every = 0 then Poor
        else if (i + 1) mod cfg.c_premium_every = 0 then Premium
        else Normal
      in
      let income, priority =
        match cls with
        | Normal -> (25.0, 0.0)
        | Premium -> (60.0, 10.0)
        | Poor -> (0.0005, 0.0)
      in
      {
        t_index = i;
        t_class = cls;
        t_latency_us = 0.0;
        t_pages = pages;
        t_hold_us = hold;
        t_income = income;
        t_priority = priority;
        t_completed = false;
        t_refused = false;
      })

let run cfg =
  let machine =
    Hw_machine.create ~memory_bytes:cfg.c_memory_bytes ~page_size:cfg.c_page_size ()
  in
  (match cfg.c_chaos with
  | None -> ()
  | Some spec ->
      Hw_disk.set_chaos machine.Hw_machine.disk (Some (Sim_chaos.create ~seed:cfg.c_seed spec)));
  let kernel = K.create machine in
  let spcm = Spcm.create kernel ~market:cfg.c_market () in
  let rng = Sim_rng.create cfg.c_seed in
  let tenant_rng = Sim_rng.split rng in
  let arrival_rng = Sim_rng.split rng in
  let tenants = draw_tenants cfg tenant_rng in
  let finished = ref 0 in
  let completed = ref 0 in
  let refused = ref 0 in
  let granted_frames = ref 0 in
  let saver_cycles = ref 0 in
  let saver_starved = ref 0 in
  let saver_backings = ref [] in
  let all_done () = !finished >= cfg.c_tenants in
  (* One acquire-to-resident sample per granted tenant, kept by class. *)
  let class_hists = [| Hist.create (); Hist.create (); Hist.create () |] in
  let class_index = function Normal -> 0 | Premium -> 1 | Poor -> 2 in

  let run_tenant t =
    let name = Printf.sprintf "tenant-%05d" t.t_index in
    let client =
      Spcm.register_client ~income:t.t_income ~priority:t.t_priority spcm ~name ()
    in
    let seg = K.create_segment kernel ~name ~pages:t.t_pages () in
    let t0 = Engine.time () in
    let got = Spcm.acquire spcm ~client ~dst:seg ~dst_page:0 ~count:t.t_pages () in
    if got = 0 then begin
      t.t_refused <- true;
      incr refused
    end
    else begin
      for page = 0 to got - 1 do
        K.touch kernel ~space:seg ~page ~access:Mgr.Write
      done;
      t.t_latency_us <- Engine.time () -. t0;
      Hist.add class_hists.(class_index t.t_class) t.t_latency_us;
      granted_frames := !granted_frames + got;
      Engine.delay t.t_hold_us;
      Spcm.return_pages spcm ~client ~seg ~page:0 ~count:got;
      t.t_completed <- true;
      incr completed
    end;
    incr finished
  in

  let run_saver i =
    let name = Printf.sprintf "saver-%d" i in
    let client = Spcm.register_client ~income:100.0 ~priority:(-1.0) spcm ~name () in
    let backing =
      match cfg.c_saver_backing with
      | Memory -> Mgr_backing.memory ()
      | Disk -> Mgr_backing.disk machine.Hw_machine.disk ~page_bytes:cfg.c_page_size
    in
    saver_backings := backing :: !saver_backings;
    let mgr =
      G.create kernel ~name:(name ^ ".mgr") ~mode:`In_process ~backing
        ~source:(Spcm.source_for spcm client)
        ~pool_capacity:(cfg.c_saver_pages + 32)
        ~refill_batch:64 ~reclaim_batch:32 ()
    in
    Spcm.set_client_manager spcm client (G.manager_id mgr);
    let seg =
      G.create_segment mgr ~name:(name ^ ".heap") ~pages:cfg.c_saver_pages ~kind:G.Anon ()
    in
    let account = (Spcm.account_of spcm client).M.acc_id in
    let rec cycle () =
      if not (all_done ()) then begin
        (* Fault the working set in; under extreme pressure the refill can
           come up completely dry — yield the slice instead of wedging. *)
        (try
           for page = 0 to cfg.c_saver_pages - 1 do
             K.touch kernel ~space:seg ~page ~access:Mgr.Write
           done
         with G.Out_of_frames _ -> incr saver_starved);
        Engine.delay cfg.c_saver_slice_us;
        let writebacks_before = (G.stats mgr).G.writebacks in
        let released = G.swap_out mgr in
        Spcm.note_returned spcm ~client ~count:released;
        (* Swap-out writebacks are the saver's I/O bill (paper: the I/O
           charge keeps scan traffic from dodging the memory charge). *)
        let ios = (G.stats mgr).G.writebacks - writebacks_before in
        if ios > 0 then
          M.note_io (Spcm.market spcm) account ~ops:ios ~now_us:(Hw_machine.now machine);
        incr saver_cycles;
        Engine.delay cfg.c_saver_idle_us;
        cycle ()
      end
    in
    cycle ()
  in

  for i = 0 to cfg.c_savers - 1 do
    Engine.spawn machine.Hw_machine.engine ~name:(Printf.sprintf "saver-%d" i) (fun () ->
        run_saver i)
  done;
  Engine.spawn machine.Hw_machine.engine ~name:"arrivals" (fun () ->
      Array.iter
        (fun t ->
          Engine.delay (Sim_rng.exponential arrival_rng ~mean:cfg.c_mean_interarrival_us);
          Engine.fork ~name:(Printf.sprintf "tenant-%05d" t.t_index) (fun () -> run_tenant t))
        tenants);
  Engine.spawn machine.Hw_machine.engine ~name:"sweeper" (fun () ->
      let rec loop () =
        if not (all_done ()) then begin
          Engine.delay cfg.c_sweep_every_us;
          ignore (Spcm.sweep spcm);
          loop ()
        end
      in
      loop ();
      ignore (Spcm.refuse_pending spcm));
  Engine.run machine.Hw_machine.engine;

  (* End-of-run reference settlement (the O(accounts) full scan) so every
     balance is current before the audit reads them. *)
  Spcm.settle spcm;
  let market = Spcm.market spcm in
  let now = Hw_machine.now machine in
  let accounts = M.accounts market in
  let min_balance =
    List.fold_left (fun acc a -> Float.min acc a.M.balance) infinity accounts
  in
  let slo_for cls =
    let members = Array.to_list tenants |> List.filter (fun t -> t.t_class = cls) in
    let h = class_hists.(class_index cls) in
    {
      sc_class = class_name cls;
      sc_tenants = List.length members;
      sc_completed = List.length (List.filter (fun t -> t.t_completed) members);
      sc_refused = List.length (List.filter (fun t -> t.t_refused) members);
      sc_samples = Hist.count h;
      sc_p50_us = Hist.quantile h 50.0;
      sc_p99_us = Hist.quantile h 99.0;
      sc_p999_us = Hist.quantile h 99.9;
      sc_max_us = Hist.max_value h;
      (* A tenant's p99 is its one sample; unsampled tenants stay at 0. *)
      sc_violations =
        List.fold_left (fun acc t -> if t.t_latency_us > cfg.c_slo_us then acc + 1 else acc) 0 members;
    }
  in
  let holdings_left =
    List.fold_left (fun acc a -> acc + a.M.holding_pages) 0 accounts
  in
  let obs = K.observe kernel in
  {
    r_name = cfg.c_name;
    r_frames = obs.K.o_frames;
    r_tenants = cfg.c_tenants;
    r_savers = cfg.c_savers;
    r_completed = !completed;
    r_refused = !refused;
    r_defer_events = Spcm.defer_events spcm;
    r_granted_frames = !granted_frames;
    r_saver_cycles = !saver_cycles;
    r_saver_starved = !saver_starved;
    r_faults = obs.K.o_faults;
    r_events = obs.K.o_events;
    r_sim_us = obs.K.o_sim_us;
    r_slo_us = cfg.c_slo_us;
    r_slos = List.map slo_for [ Normal; Premium; Poor ];
    r_accounts = M.n_accounts market;
    r_min_balance = min_balance;
    r_billable_s = M.billable_s market ~now_us:now;
    r_conservation_residual = M.conservation_error market;
    r_io_failures =
      List.fold_left (fun acc b -> acc + Mgr_backing.io_failures b) 0 !saver_backings;
    r_conserved = obs.K.o_conserved && Spcm.pending_acquires spcm = 0 && holdings_left = 0;
  }
