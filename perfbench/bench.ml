(* The repository benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe --slab-check --seed N

   Runs one workload for S host seconds: whole runs of the workload
   (fixed length, inputs generated from the seed) repeated until the
   time is up, with set-up timed [setup_reps] times after each run.
   Every run's outputs are checked and every run must reproduce the
   first one's simulated results exactly.  The last line of standard output is one JSON
   object: the end-to-end metrics with --trace 0, the per-layer metrics
   (from runs with the simulator's tracer installed) with --trace 1.
   Exits 1 if any check fails.  See README.md in this directory. *)

open Common

let workloads =
  [
    ("fleet-a2a", W_fleet.a2a);
    ("fleet-incast", W_fleet.incast);
    ("host-rmp", W_host_rmp.workload);
    ("lossy-mix", W_lossy.workload);
  ]

let end_to_end =
  [
    ("setup_s", "s");
    ("msgs_per_s", "msg/s");
    ("minor_words_per_msg", "words");
    ("peak_rss_mb", "MB");
    ("sim_lat_p50_us", "us");
    ("sim_lat_p99_us", "us");
    ("sim_goodput_mbit_s", "Mbit/s");
    ("ok_ratio", "ratio");
  ]

let call_sim = [ "Hostlib.begin_put"; "Hostlib.write_string"; "Hostlib.end_put";
                 "Hostlib.begin_get"; "Hostlib.read_string"; "Hostlib.end_get";
                 "Mailbox.begin_get"; "Rmp.send_string"; "Reqresp.call"; "Tcp.send" ]

(* Calls that never suspend, so host time and words are theirs alone. *)
let call_host = [ "Driver.run"; "Stack.create"; "Hostlib.attach" ]

let per_layer =
  [
    ("sim.host_s_per_sim_s", "s/s");
    ("sim.event_pool_hit_ratio", "ratio");
    ("parallel.windows_per_msg", "count");
    ("parallel.crossed_per_msg", "count");
    ("hub.frames_per_msg", "count");
    ("hub.port_waits_per_msg", "count");
    ("hub.port_wait_us_per_msg", "us");
    ("hub.fault_drops", "count");
    ("fleet.build_bytes_per_node", "B");
    ("fleet.goodput_spread", "ratio");
    ("host.begin_put_us_per_msg", "us");
    ("host.write_us_per_msg", "us");
    ("host.end_put_us_per_msg", "us");
    ("host.begin_get_us_per_msg", "us");
    ("host.read_us_per_msg", "us");
    ("host.end_get_us_per_msg", "us");
    ("host.wakeups_per_msg", "count");
    ("gen.late_p99_us", "us");
    ("cab.cpu_busy_frac", "ratio");
    ("cab.switches_per_msg", "count");
    ("vme.busy_frac", "ratio");
    ("vme.bytes_per_msg", "B");
    ("vme.pio_us_per_msg", "us");
    ("vme.dma_us_per_msg", "us");
    ("tx.dma_us_per_msg", "us");
    ("rx.dma_us_per_msg", "us");
    ("rx.batch_per_msg", "count");
    ("rx.batches_per_frame", "ratio");
    ("core.copy_bytes_per_msg", "B");
    ("core.cab_signals_per_msg", "count");
    ("mailbox.overflow_drops", "count");
    ("dl.tx_us_per_msg", "us");
    ("dl.rx_per_msg", "count");
    ("rmp.retransmits_per_msg", "count");
    ("rmp.duplicates", "count");
    ("tcp.retx_per_seg", "ratio");
    ("rpc.retx", "count");
    ("rpc.duplicate_requests", "count");
    ("proto.useful_frame_ratio", "ratio");
  ]
  @ List.concat_map
      (fun c ->
        [ ("call." ^ c ^ ".count", "count"); ("call." ^ c ^ ".mean_us", "us");
          ("call." ^ c ^ ".p99_us", "us") ])
      call_sim
  @ List.concat_map
      (fun c ->
        [ ("call." ^ c ^ ".count", "count"); ("call." ^ c ^ ".host_us", "us");
          ("call." ^ c ^ ".words", "words") ])
      call_host
  @ [
      ("sim_lat.samples", "count");
      ("calib.slowness", "ratio");
      ("calib.raw_msgs_per_s", "msg/s");
      ("trace.events", "count");
      ("trace.overhead_ratio", "ratio");
    ]

let msgs_per_s o = float_of_int o.delivered /. o.host_s
let words_per_msg o = o.words /. float_of_int (max 1 o.delivered)

let call_metrics ~host_s =
  List.concat_map
    (fun c ->
      let s = Calls.summary ("call." ^ c) in
      [ ("call." ^ c ^ ".count", float_of_int s.Calls.count);
        ("call." ^ c ^ ".mean_us", s.Calls.mean_us);
        ("call." ^ c ^ ".p99_us", s.Calls.p99_us) ])
    call_sim
  @ List.concat_map
      (fun c ->
        let s = Calls.summary ("call." ^ c) in
        [ ("call." ^ c ^ ".count", float_of_int s.Calls.count);
          ("call." ^ c ^ ".host_us", host_s s.Calls.host_us);
          ("call." ^ c ^ ".words", s.Calls.words) ])
      call_host

let json_metrics names values =
  String.concat ", "
    (List.map
       (fun (name, unit) ->
         let v = Option.value ~default:0. (List.assoc_opt name values) in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       names)

type tally = { mutable tried : int; mutable lost : int; mutable problems : string list }

let judge tally ~first (o : outcome) =
  tally.tried <- tally.tried + o.attempted;
  let bad = List.filter (fun (_, ok) -> not ok) o.checks in
  tally.lost <- tally.lost + o.failed + List.length bad;
  List.iter (fun (what, _) -> tally.problems <- ("check failed: " ^ what) :: tally.problems) bad;
  match first with
  | Some f when signature f <> signature o ->
      tally.lost <- tally.lost + 1;
      tally.problems <- "same seed gave different simulated results" :: tally.problems
  | _ -> ()

let run_workload ~name ~seed ~seconds ~trace (W w) =
  let t_start = now_s () in
  let setups = ref [] in
  (* Set-up is timed between the timed runs, not all at the start: the
     samples then see the same machine as the runs, on a heap that has
     already grown. *)
  let time_setups () =
    for _ = 1 to w.setup_reps do
      Gc.full_major ();
      let t0 = now_s () in
      w.setup ~seed;
      setups := (now_s () -. t0) :: !setups
    done
  in
  let calibration = ref [] in
  (* The workload's peak RSS is read before the calibration kernel first
     runs, so the kernel's own heap never counts in it; every later run
     repeats the same work. *)
  let rss = ref nan in
  let time_calibration () =
    if !calibration = [] then rss := peak_rss_mb ();
    for _ = 1 to 2 do
      Gc.full_major ();
      calibration := calibration_kernel () :: !calibration
    done
  in
  let tally = { tried = 0; lost = 0; problems = [] } in
  let first = ref None in
  let plain = ref [] and traced = ref [] in
  let one ~traced:tr =
    Gc.full_major ();
    if tr then begin Calls.reset (); Calls.enabled := true end;
    (* In a traced run every run has the traced length, so the
       overhead ratio compares like with like. *)
    let world = w.build ~traced:trace ~seed in
    let o = w.run ~traced:tr world in
    Calls.enabled := false;
    judge tally ~first:!first o;
    if !first = None then first := Some o;
    o
  in
  let deadline = t_start +. seconds in
  let enough () =
    now_s () >= deadline
    && List.length !plain >= 2
    && ((not trace) || !traced <> [])
  in
  while not (enough ()) do
    plain := one ~traced:false :: !plain;
    if trace then traced := one ~traced:true :: !traced else time_setups ();
    time_calibration ()
  done;
  (* > 1 when this machine ran slower than the reference one. *)
  let slowness = median !calibration /. calibration_ref_s in
  let host_s x = x /. slowness in
  let o = Option.get !first in
  let fail_ratio = ratio tally.lost tally.tried in
  let values, names =
    if not trace then
      ( [
          ("setup_s", host_s (median !setups));
          ("msgs_per_s", median (List.map msgs_per_s !plain) *. slowness);
          ("minor_words_per_msg", median (List.map words_per_msg !plain));
          ("peak_rss_mb", !rss);
          ("sim_lat_p50_us", float_of_int o.lat_p50_ns /. 1e3);
          ("sim_lat_p99_us", float_of_int o.lat_p99_ns /. 1e3);
          ("sim_goodput_mbit_s", goodput_mbit_s o);
          ("ok_ratio", 1. -. fail_ratio);
        ],
        end_to_end )
    else begin
      let t = List.hd !traced in
      let overhead =
        median (List.map msgs_per_s !traced) /. median (List.map msgs_per_s !plain)
      in
      ( t.layers @ t.traced @ call_metrics ~host_s
        @ [
            ("sim.host_s_per_sim_s", host_s (median (List.map (fun o -> o.host_s) !plain))
                                     /. (float_of_int o.sim_ns /. 1e9));
            ("sim_lat.samples", float_of_int o.lat_samples);
            ("calib.slowness", slowness);
            ("calib.raw_msgs_per_s", median (List.map msgs_per_s !plain));
            ("trace.overhead_ratio", overhead);
          ],
        per_layer )
    end
  in
  if trace then begin
    (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
    Calls.write (Printf.sprintf ".bench_out/spans-%s-seed%d.tsv" name seed)
  end;
  let correct = tally.problems = [] in
  (* Per-layer numbers from a run that failed a check (a wrapped trace
     ring above all) are not reported. *)
  let names = if trace && not correct then [] else names in
  Printf.printf
    "# %s seed=%d runs=%d traced_runs=%d sim_lat_samples=%d fail_ratio=%g \
     slowness=%.4f raw_msgs_per_s=%.1f raw_setup_s=%.5f\n"
    name seed (List.length !plain) (List.length !traced) o.lat_samples fail_ratio
    slowness (median (List.map msgs_per_s !plain)) (median !setups);
  List.iter (fun p -> Printf.printf "# %s\n" p) (List.rev tally.problems);
  List.iter
    (fun (n, u) ->
      Printf.printf "%-32s %16.6g %s\n" n
        (Option.value ~default:0. (List.assoc_opt n values)) u)
    names;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.tried tally.lost (json_metrics names values);
  correct

(* The event-slab sensitivity check: fleet-a2a with the engine event
   slab off and on.  Prints both runs' words per message and simulated
   results as one JSON object; the test in test/ judges them. *)
let slab_check ~seed =
  let one event_pool =
    let o = W_fleet.slab_outcome ~event_pool ~seed in
    Printf.sprintf
      "{\"minor_words_per_msg\": %.17g, \"sim_lat_p50_us\": %.17g, \
       \"sim_lat_p99_us\": %.17g, \"sim_goodput_mbit_s\": %.17g, \"delivered\": %d, \
       \"event_pool_hit_ratio\": %.17g}"
      (words_per_msg o) (float_of_int o.lat_p50_ns /. 1e3)
      (float_of_int o.lat_p99_ns /. 1e3) (goodput_mbit_s o) o.delivered
      (List.assoc "sim.event_pool_hit_ratio" o.layers)
  in
  let off = one false in
  let on = one true in
  Printf.printf "{\"off\": %s, \"on\": %s}\n%!" off on

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       bench.exe --slab-check --seed N";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10. and trace = ref 0 in
  let slab = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--slab-check", Arg.Set slab, " event-slab sensitivity check");
    ]
    (fun a -> prerr_endline ("unexpected argument " ^ a); usage ())
    "bench.exe";
  if !seed < 0 then usage ();
  if !slab then slab_check ~seed:!seed
  else
    match List.assoc_opt !workload workloads with
    | None ->
        prerr_endline
          ("unknown workload; one of: " ^ String.concat ", " (List.map fst workloads));
        exit 2
    | Some w ->
        if !trace <> 0 && !trace <> 1 then usage ();
        if not (run_workload ~name:!workload ~seed:!seed ~seconds:!seconds
                  ~trace:(!trace = 1) w)
        then exit 1
