(* Fleet-scale bench (beyond the paper — see EXPERIMENTS.md).

   256/512/1024-CAB torus fleets under synthetic workloads (incast
   fan-in, all-to-all, Zipfian hotspot), driven wire-level through the
   conservative parallel engine by lib/fleet.  Deterministic and gated:
   delivery totals, per-partition wire conservation, handoff balance,
   and double-run determinism on the 1024-CAB world.  Reported but
   machine-independent: tail latency (p50/p99/max), per-sender goodput
   spread, HUB port contention.

   The scaling section (bench scaling, and its smoke form for the
   @parallel alias) sweeps domain counts over a 64-CAB torus through the
   same per-point gates.

   The slab section measures the allocation pools: minor words per
   message with the engine event slab off vs on (same fleet workload,
   single domain, identical results asserted) and with the Message
   record pool off vs on (a stack-level windowed-RMP pair).  The
   before/after numbers land in BENCH_perf.json; perf-smoke re-gates
   the recorded bytes-per-node and the pools-off words per message, so
   allocator, world-build and message-path regressions fail CI. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
module Topology = Nectar_fleet.Topology
module Workload = Nectar_fleet.Workload
module Driver = Nectar_fleet.Driver

(* ---------- fleet points ---------- *)

let torus_for cabs =
  match cabs with
  | 256 -> Topology.Torus { rows = 8; cols = 8; seats = 4 }
  | 512 -> Topology.Torus { rows = 16; cols = 8; seats = 4 }
  | 1024 -> Topology.Torus { rows = 16; cols = 16; seats = 4 }
  | _ -> invalid_arg "fleet: unknown size"

let pattern_of = function
  | "incast" -> Workload.Incast { sinks = 8 }
  | "all-to-all" -> Workload.All_to_all
  | "hotspot" -> Workload.Hotspot { alpha = 1.1 }
  | p -> invalid_arg ("fleet: unknown pattern " ^ p)

let cfg ~cabs ~pattern ~msgs ~domains ~event_pool =
  Driver.config ~domains ~event_pool ~frame_bytes:256 ~topo:(torus_for cabs)
    ~workload:
      (Workload.make ~pattern:(pattern_of pattern)
         ~arrivals:(Workload.Closed { think_ns = 20_000 })
         ~msgs_per_node:msgs ~seed:1990)
    ()

type point = {
  cabs : int;
  pattern : string;
  domains : int;
  offered : int;
  wall_s : float;
  delivered : int;
  windows : int;
  crossed : int;
  spread : float;
  lat_p50 : int;
  lat_p99 : int;
  lat_max : int;
  port_waits : int;
  port_wait_us_per_msg : float;
  final_ms : float;
}

(* Run one driver configuration and assert what every fleet run must
   hold; [determinism] re-runs it and requires an identical result. *)
let run_point ~check ~determinism (c : Driver.config) =
  let t0 = Unix.gettimeofday () in
  let r = Driver.run c in
  let wall = Unix.gettimeofday () -. t0 in
  let cabs = r.Driver.nodes
  and pattern = Workload.pattern_name c.workload
  and domains = c.domains in
  let what fmt =
    Printf.ksprintf
      (fun s -> Printf.sprintf "fleet %d/%s/%dd: %s" cabs pattern domains s)
      fmt
  in
  check
    (what "delivered %d/%d" (Driver.delivered r) r.Driver.total_msgs)
    (Driver.delivered r = r.Driver.total_msgs);
  check (what "wire conservation") r.Driver.conserved;
  check
    (what "handoffs balance (%d out, %d in)" (Driver.handed_off r)
       (Driver.injected r))
    (Driver.handed_off r = Driver.injected r);
  if domains > 1 then
    check
      (what "crossings counted (%d)" r.Driver.crossed)
      (r.Driver.crossed = Driver.handed_off r && r.Driver.crossed > 0);
  check (what "fan-in queues on HUB ports") (r.Driver.port_waits > 0);
  if determinism then begin
    let r2 = Driver.run c in
    check (what "double-run determinism") (Driver.deterministic_eq r r2)
  end;
  {
    cabs;
    pattern;
    domains;
    offered = r.Driver.total_msgs;
    wall_s = wall;
    delivered = Driver.delivered r;
    windows = r.Driver.windows;
    crossed = r.Driver.crossed;
    spread = r.Driver.spread;
    lat_p50 = r.Driver.lat_p50;
    lat_p99 = r.Driver.lat_p99;
    lat_max = r.Driver.lat_max;
    port_waits = r.Driver.port_waits;
    port_wait_us_per_msg =
      (if Driver.delivered r = 0 then 0.
       else
         float_of_int r.Driver.port_wait_ns
         /. float_of_int (Driver.delivered r) /. 1e3);
    final_ms =
      float_of_int (Array.fold_left max 0 r.Driver.finals) /. 1e6;
  }

(* ---------- slab measurements ---------- *)

(* Recorded regression point for perf-smoke: resident bytes per node of
   a built 256-CAB fleet world (BENCH_perf.json "fleet_scale").  Gated at
   1.5x so allocator or world-build regressions fail CI without making
   the gate machine-sensitive. *)
let recorded_bytes_per_node = 1_558

let bytes_per_node_gate ~check ~smoke =
  let c = cfg ~cabs:256 ~pattern:"incast" ~msgs:4 ~domains:1 ~event_pool:false in
  let b = Driver.build_bytes_per_node c in
  check
    (Printf.sprintf "fleet: build footprint %d B/node sane" b)
    (b > 0 && b < 2_000_000);
  if smoke then
    check
      (Printf.sprintf
         "BENCH_perf.json fleet_scale: %d B/node within 1.5x of recorded %d" b
         recorded_bytes_per_node)
      (b <= recorded_bytes_per_node * 3 / 2);
  b

(* Recorded regression points for perf-smoke: minor words per delivered
   message with the pools off, in the smoke-sized runs below — the
   single-domain fleet smoke and the stack-level RMP pair.  These are the
   simulator's own cost per message (context switches, events, records);
   the counts are exact for a given compiler, and the 1.05x ceiling fails
   CI on any allocation regression worth a benchmark's bound. *)
let recorded_fleet_words_per_msg = 561
let recorded_rmp_words_per_msg = 3_154

let words_gate ~check what ~recorded w =
  check
    (Printf.sprintf
       "BENCH_perf.json %s: %.0f minor words/msg within 1.05x of recorded %d"
       what w recorded)
    (w <= float_of_int recorded *. 1.05)

(* Minor words per delivered message of a single-domain fleet run, event
   slab off vs on.  Single domain means every allocation happens on this
   domain, so Gc.minor_words brackets the run exactly; the off/on worlds
   are asserted result-identical first, making the comparison
   apples-to-apples. *)
let fleet_minor_words ~check ~smoke ~msgs =
  let one event_pool =
    let c = cfg ~cabs:256 ~pattern:"all-to-all" ~msgs ~domains:1 ~event_pool in
    let w0 = Gc.minor_words () in
    let r = Driver.run c in
    let dw = Gc.minor_words () -. w0 in
    (r, dw /. float_of_int (max 1 (Driver.delivered r)))
  in
  let r_off, w_off = one false in
  let r_on, w_on = one true in
  check "fleet slab: pooled run result-identical"
    (Driver.deterministic_eq r_off r_on);
  check
    (Printf.sprintf "fleet slab: event pool recycles (%d hits)"
       r_on.Driver.pool_hits)
    (r_on.Driver.pool_hits > 0);
  check
    (Printf.sprintf "fleet slab: minor words/msg %.0f -> %.0f" w_off w_on)
    (w_on < w_off);
  if smoke then
    words_gate ~check "fleet slab off" ~recorded:recorded_fleet_words_per_msg
      w_off;
  (w_off, w_on, r_on.Driver.pool_hits)

(* Minor words per message of a stack-level windowed-RMP pair, Message
   record pool off vs on — the datalink/transport path is where Message
   records churn. *)
let rmp_minor_words ~check ~smoke ~count =
  let one msg_pool =
    let w =
      Nectar_fleet.World.build ~msg_pool ~seats:[ (0, 0); (0, 1) ] (fun rt ->
          Stack.create rt ~rmp_window:8 ())
    in
    let a = w.nodes.(0) and b = w.nodes.(1) in
    let port = 700 in
    let inbox =
      Runtime.create_mailbox b.Stack.rt ~name:"mp-inbox" ~port
        ~byte_limit:(256 * 1024) ()
    in
    let got = ref 0 in
    ignore
      (Thread.create (Runtime.cab b.Stack.rt) ~name:"sink" (fun ctx ->
           for _ = 1 to count do
             let m = Mailbox.begin_get ctx inbox in
             Mailbox.end_get ctx m;
             incr got
           done));
    ignore
      (Thread.create (Runtime.cab a.Stack.rt) ~name:"src" (fun ctx ->
           let payload = String.make 1024 'p' in
           let dst_cab = Stack.node_id b in
           for _ = 1 to count do
             Rmp.send_string ctx a.Stack.rmp ~dst_cab ~dst_port:port payload
           done;
           Rmp.flush ctx a.Stack.rmp ~dst_cab ~dst_port:port));
    let w0 = Gc.minor_words () in
    Engine.run w.eng;
    let dw = Gc.minor_words () -. w0 in
    let hits =
      match Runtime.msg_pool a.Stack.rt with
      | Some p -> Message.Pool.hits p
      | None -> 0
    in
    (!got, dw /. float_of_int (max 1 !got), hits)
  in
  let got_off, w_off, _ = one false in
  let got_on, w_on, hits = one true in
  check
    (Printf.sprintf "rmp slab: delivered %d = %d with pool" got_off got_on)
    (got_off = count && got_on = count);
  check
    (Printf.sprintf "rmp slab: message records recycle (%d hits)" hits)
    (hits > 0);
  check
    (Printf.sprintf "rmp slab: minor words/msg %.0f -> %.0f" w_off w_on)
    (w_on < w_off);
  if smoke then
    words_gate ~check "rmp pool off" ~recorded:recorded_rmp_words_per_msg
      w_off;
  (w_off, w_on, hits)

(* ---------- sweep ---------- *)

type slab = {
  s_bytes_per_node : int;
  s_fleet_words_off : float;
  s_fleet_words_on : float;
  s_fleet_pool_hits : int;
  s_rmp_words_off : float;
  s_rmp_words_on : float;
  s_msgpool_hits : int;
}

type result = { r_points : point list; r_slab : slab; r_cores : int }

let measure ~smoke ~check () =
  (* measured first, on a heap no finished domain has touched *)
  let b = bytes_per_node_gate ~check ~smoke in
  let points =
    if smoke then
      [
        run_point ~check ~determinism:true
          (cfg ~cabs:256 ~pattern:"incast" ~msgs:4 ~domains:2 ~event_pool:true);
      ]
    else
      List.concat_map
        (fun (cabs, msgs) ->
          List.map
            (fun pattern ->
              (* the acceptance point: the 1024-CAB world re-runs and
                 must reproduce bit-for-bit *)
              let determinism = cabs = 1024 && pattern = "incast" in
              run_point ~check ~determinism
                (cfg ~cabs ~pattern ~msgs ~domains:4 ~event_pool:true))
            [ "incast"; "all-to-all"; "hotspot" ])
        [ (256, 400); (512, 400); (1024, 400) ]
  in
  let fw_off, fw_on, fhits =
    fleet_minor_words ~check ~smoke ~msgs:(if smoke then 4 else 40)
  in
  let rw_off, rw_on, mhits =
    rmp_minor_words ~check ~smoke ~count:(if smoke then 60 else 400)
  in
  {
    r_points = points;
    r_slab =
      {
        s_bytes_per_node = b;
        s_fleet_words_off = fw_off;
        s_fleet_words_on = fw_on;
        s_fleet_pool_hits = fhits;
        s_rmp_words_off = rw_off;
        s_rmp_words_on = rw_on;
        s_msgpool_hits = mhits;
      };
    r_cores = Domain.recommended_domain_count ();
  }

let print r =
  Printf.printf
    "  fleet worlds (torus, 4 CABs/hub, closed loop, %d cores):\n" r.r_cores;
  Printf.printf
    "    %5s %-10s %2s %8s %7s %9s %9s %9s %6s %8s\n"
    "cabs" "pattern" "d" "msgs" "wall_s" "p50_us" "p99_us" "max_us" "fair"
    "wait_us";
  List.iter
    (fun p ->
      Printf.printf
        "    %5d %-10s %2d %8d %7.2f %9.1f %9.1f %9.1f %6.2f %8.2f\n"
        p.cabs p.pattern p.domains p.offered p.wall_s
        (float_of_int p.lat_p50 /. 1e3)
        (float_of_int p.lat_p99 /. 1e3)
        (float_of_int p.lat_max /. 1e3)
        p.spread p.port_wait_us_per_msg)
    r.r_points;
  let s = r.r_slab in
  Printf.printf
    "  slab allocation (single-domain fleet + RMP pair):\n\
    \    build footprint        %8d B/node\n\
    \    event slab   words/msg %8.0f -> %8.0f  (%d recycles)\n\
    \    message pool words/msg %8.0f -> %8.0f  (%d recycles)\n"
    s.s_bytes_per_node s.s_fleet_words_off s.s_fleet_words_on
    s.s_fleet_pool_hits s.s_rmp_words_off s.s_rmp_words_on s.s_msgpool_hits

let json_fragment r =
  let b = Buffer.create 1024 in
  let s = r.r_slab in
  Printf.bprintf b
    "  \"fleet_scale\": {\n\
    \    \"note\": \"wall clock is machine-dependent (this run: %d cores); \
     counts, latencies, fairness and slab words are deterministic and \
     asserted\",\n\
    \    \"bytes_per_node\": %d,\n\
    \    \"event_slab_words_per_msg\": { \"off\": %.0f, \"on\": %.0f, \
     \"recycles\": %d },\n\
    \    \"msg_pool_words_per_msg\": { \"off\": %.0f, \"on\": %.0f, \
     \"recycles\": %d },\n\
    \    \"points\": [\n"
    r.r_cores s.s_bytes_per_node s.s_fleet_words_off s.s_fleet_words_on
    s.s_fleet_pool_hits s.s_rmp_words_off s.s_rmp_words_on s.s_msgpool_hits;
  List.iteri
    (fun i p ->
      Printf.bprintf b
        "    { \"cabs\": %d, \"pattern\": \"%s\", \"domains\": %d, \
         \"msgs\": %d, \"wall_s\": %.3f, \"windows\": %d, \"crossings\": %d, \
         \"lat_p50_ns\": %d, \"lat_p99_ns\": %d, \"lat_max_ns\": %d, \
         \"goodput_spread\": %.3f, \"port_waits\": %d, \"final_sim_ms\": \
         %.1f }%s\n"
        p.cabs p.pattern p.domains p.offered p.wall_s p.windows p.crossed
        p.lat_p50 p.lat_p99 p.lat_max p.spread p.port_waits p.final_ms
        (if i = List.length r.r_points - 1 then "" else ","))
    r.r_points;
  Buffer.add_string b "  ] }";
  Buffer.contents b

(* ---------- parallel-engine scaling sweep ---------- *)

(* A 64-CAB 8x2 torus (4 CABs per hub, 1024-B frames, all-to-all) swept
   over domain counts.  The row-block cuts turn the south trunks they
   cross into store-and-forward links whose 20 us latency is the
   scheduler's lookahead.  Every count and time is deterministic and
   gated through [run_point], each multi-domain point twice; wall clock
   is recorded, and the speedup gate applies only on >= 4 cores. *)
let scaling_cfg ~msgs ~domains =
  Driver.config ~domains ~lookahead_ns:20_000 ~frame_bytes:1024
    ~topo:(Topology.Torus { rows = 8; cols = 2; seats = 4 })
    ~workload:
      (Workload.make ~pattern:Workload.All_to_all
         ~arrivals:(Workload.Closed { think_ns = 20_000 })
         ~msgs_per_node:msgs ~seed:1990)
    ()

type scaling = {
  sc_msgs : int;
  sc_cores : int;
  sc_bytes_per_node : int;
  sc_points : point list;  (** the 1-domain point first *)
}

let measure_scaling ~smoke ~check () =
  let msgs = if smoke then 4 else 32 in
  (* measured first, on a heap no finished domain has touched *)
  let b = Driver.build_bytes_per_node (scaling_cfg ~msgs ~domains:1) in
  check
    (Printf.sprintf "scaling: build footprint %d B/node sane" b)
    (b > 0 && b < 2_000_000);
  let points =
    List.map
      (fun domains ->
        run_point ~check ~determinism:(domains > 1)
          (scaling_cfg ~msgs ~domains))
      (if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ])
  in
  let cores = Domain.recommended_domain_count () in
  let wall1 = (List.hd points).wall_s in
  List.iter
    (fun p ->
      if p.domains = 4 && cores >= 4 then
        check
          (Printf.sprintf "scaling: >= 2.0x at 4 domains (%.2fx on %d cores)"
             (wall1 /. p.wall_s) cores)
          (wall1 /. p.wall_s >= 2.0))
    points;
  {
    sc_msgs = msgs;
    sc_cores = cores;
    sc_bytes_per_node = b;
    sc_points = points;
  }

let print_scaling r =
  let wall1 = (List.hd r.sc_points).wall_s in
  Printf.printf
    "  parallel engine, 64 CABs on an 8x2 torus, %d msgs/node (%d cores):\n"
    r.sc_msgs r.sc_cores;
  List.iter
    (fun p ->
      Printf.printf
        "    %d domain%s  %6.3f s wall  %5.2fx  (%d windows, %d crossings)\n"
        p.domains
        (if p.domains = 1 then " " else "s")
        p.wall_s (wall1 /. p.wall_s) p.windows p.crossed)
    r.sc_points;
  Printf.printf "    build footprint %d B/node\n" r.sc_bytes_per_node

let scaling_json_fragment r =
  let b = Buffer.create 1024 in
  let wall1 = (List.hd r.sc_points).wall_s in
  Printf.bprintf b
    "  \"scaling\": {\n\
    \    \"note\": \"Fleet.Driver sweep; wall clock and speedup are \
     machine-dependent, delivered/windows/crossings/final times are \
     deterministic and asserted\",\n\
    \    \"nodes\": 64, \"torus\": \"8x2\", \"frame_bytes\": 1024, \
     \"workload\": \"all-to-all, closed loop, 20 us think\", \
     \"msgs_per_node\": %d,\n\
    \    \"lookahead_ns\": 20000, \"build_bytes_per_node\": %d, \
     \"cores\": %d,\n\
    \    \"points\": [\n"
    r.sc_msgs r.sc_bytes_per_node r.sc_cores;
  List.iteri
    (fun i p ->
      Printf.bprintf b
        "    { \"domains\": %d, \"cores\": %d, \"wall_s\": %.3f, \
         \"wall_1d_s\": %.3f, \"speedup\": %.2f, \"windows\": %d, \
         \"crossings\": %d, \"delivered\": %d, \"final_sim_ms\": %.3f }%s\n"
        p.domains r.sc_cores p.wall_s wall1 (wall1 /. p.wall_s) p.windows
        p.crossed p.delivered p.final_ms
        (if i = List.length r.sc_points - 1 then "" else ","))
    r.sc_points;
  Buffer.add_string b "  ] }";
  Buffer.contents b

(* ---------- standalone experiments ---------- *)

(* Run [measure] with a failure-counting check, print its result, and
   exit 1 if any check failed (the CI aliases run the smoke forms). *)
let standalone ~name ~title measure print =
  Bench_world.section title;
  let failures = ref 0 in
  let check what ok =
    if not ok then begin
      incr failures;
      Printf.printf "  FAIL: %s\n" what
    end
  in
  print (measure ~check);
  if !failures > 0 then begin
    Printf.printf "  %s: %d check(s) FAILED\n" name !failures;
    exit 1
  end
  else Printf.printf "  %s: all deterministic checks passed\n" name

let run ~smoke () =
  standalone ~name:"fleet"
    ~title:
      (if smoke then
         "Fleet scale (smoke: 256 CABs, conservation + determinism + slab \
          gates)"
       else "Fleet scale: 256/512/1024 CABs x incast/all-to-all/hotspot")
    (fun ~check -> measure ~smoke ~check ())
    print

let scaling ~smoke () =
  standalone ~name:"scaling"
    ~title:
      (if smoke then "Parallel scaling (smoke: 1 and 2 domains, determinism \
                      gates)"
       else "Parallel scaling: 64-CAB torus over 1/2/4/8 domains")
    (fun ~check -> measure_scaling ~smoke ~check ())
    print_scaling
