(* fleet-a2a and fleet-incast: the 1024-CAB 16x16x4 torus through the
   fleet driver at its defaults (1 domain, pools off, 256-byte frames,
   20 us lookahead), closed loop with a 20 us think time.  The driver
   builds and runs in one call and the topology is built lazily, so the
   timed run includes the world build, and setup_s times a
   one-message-per-sender run of the same spec instead. *)

open Common
module Topology = Nectar_fleet.Topology
module Workload = Nectar_fleet.Workload
module Driver = Nectar_fleet.Driver

let topo = Topology.Torus { rows = 16; cols = 16; seats = 4 }
let think_ns = 20_000

(* Fixed run length: per-message cost grows with run length, so it must
   not depend on the machine. *)
let msgs_per_node = 60

let config ?event_pool ~pattern ~msgs ~seed () =
  Driver.config ?event_pool ~topo
    ~workload:
      (Workload.make ~pattern ~arrivals:(Workload.Closed { think_ns })
         ~msgs_per_node:msgs ~seed)
    ()

let outcome (cfg : Driver.config) ~traced =
  let r, host_s, words = timed (fun () -> Calls.around "call.Driver.run" ~msg:0 (fun () -> Driver.run cfg)) in
  let delivered = Driver.delivered r in
  let total = r.Driver.total_msgs in
  let sim_ns = Array.fold_left max 0 r.Driver.finals in
  let per x = ratio x delivered in
  let pool = r.Driver.pool_hits + r.Driver.pool_misses in
  {
    attempted = total;
    delivered;
    failed = total - delivered;
    checks =
      [
        (Printf.sprintf "delivered %d = offered %d" delivered total,
         delivered = total);
        ("per-partition wire conservation", r.Driver.conserved);
        ( Printf.sprintf "handoffs balance (%d out, %d in)"
            (Driver.handed_off r) (Driver.injected r),
          Driver.handed_off r = Driver.injected r );
      ];
    lat_p50_ns = r.Driver.lat_p50;
    lat_p99_ns = r.Driver.lat_p99;
    lat_samples = delivered;
    goodput_bytes = delivered * (cfg.Driver.frame_bytes - 8);
    goodput_ns = sim_ns;
    sim_ns;
    layers =
      [
        ("sim.event_pool_hit_ratio", ratio r.Driver.pool_hits pool);
        ("parallel.windows_per_msg", per r.Driver.windows);
        ("parallel.crossed_per_msg", per r.Driver.crossed);
        ("hub.frames_per_msg", per (Driver.sent r));
        ("hub.port_waits_per_msg", per r.Driver.port_waits);
        ("hub.port_wait_us_per_msg", per r.Driver.port_wait_ns /. 1e3);
        ("fleet.goodput_spread", r.Driver.spread);
        ("proto.useful_frame_ratio", ratio delivered (Driver.sent r));
      ];
    traced =
      (if traced then
         [ ("fleet.build_bytes_per_node",
            float_of_int (Driver.build_bytes_per_node cfg)) ]
       else []);
    host_s;
    words;
  }

let workload pattern : packed =
  W
    {
      setup = (fun ~seed -> ignore (Driver.run (config ~pattern ~msgs:1 ~seed ())));
      setup_reps = 2;
      build = (fun ~traced:_ ~seed -> config ~pattern ~msgs:msgs_per_node ~seed ());
      run = (fun ~traced cfg -> outcome cfg ~traced);
    }

let a2a = workload Workload.All_to_all
let incast = workload (Workload.Incast { sinks = 8 })

(* fleet-a2a with the engine event slab set explicitly: the input of the
   slab sensitivity check only, never of a benchmark run. *)
let slab_outcome ~event_pool ~seed =
  outcome
    (config ~event_pool ~pattern:Workload.All_to_all ~msgs:msgs_per_node ~seed ())
    ~traced:false
