(* Two CABs on one HUB with default protocol stacks, optionally each
   behind a host: the world of host-rmp and lossy-mix, plus the
   per-layer counters both read off it. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Common
module Net = Nectar_hub.Network
module Cab = Nectar_cab.Cab
module Vme = Nectar_cab.Vme
module Rx = Nectar_cab.Rx
module Host = Nectar_host.Host
module Cab_driver = Nectar_host.Cab_driver

type node = {
  rt : Runtime.t;
  stack : Stack.t;
  drv : Cab_driver.t option;
}

type t = { eng : Engine.t; net : Net.t; a : node; b : node }

let create ~hosts =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:1 () in
  let node i =
    let cab = Cab.create net ~hub:0 ~port:i ~name:(Printf.sprintf "cab%d" i) in
    let rt = Runtime.create cab in
    let stack = Calls.around "call.Stack.create" ~msg:i (fun () -> Stack.create rt ()) in
    let drv =
      if hosts then
        Some (Cab_driver.attach (Host.create eng ~name:(Printf.sprintf "host%d" i)) rt)
      else None
    in
    { rt; stack; drv }
  in
  let a = node 0 in
  let b = node 1 in
  { eng; net; a; b }

let cab_thread n ~name body =
  ignore
    (Thread.create (Runtime.cab n.rt) ~priority:Thread.System ~name body)

let nodes t = [ t.a; t.b ]
let sum f t = List.fold_left (fun acc n -> acc + f n) 0 (nodes t)

(* Per-layer counters over the pair.  [msgs] is the application message
   count every "_per_msg" figure divides by; [mailboxes] are the
   benchmark's own mailboxes. *)
let layers t ~msgs ~mailboxes =
  let sim_ns = Engine.now t.eng in
  let per x = ratio x msgs in
  let frac busy = float_of_int busy /. float_of_int (max 1 (2 * sim_ns)) in
  let cab n = Runtime.cab n.rt in
  let vme_busy n =
    match n.drv with
    | Some d -> Resource.busy_time (Vme.bus (Cab_driver.vme d))
    | None -> 0
  in
  let vme_bytes n =
    match n.drv with Some d -> Vme.bytes_moved (Cab_driver.vme d) | None -> 0
  in
  let hits = Engine.event_pool_hits t.eng in
  let frames_sent = Net.frames_sent t.net in
  [
    ("sim.event_pool_hit_ratio", ratio hits (hits + Engine.event_pool_misses t.eng));
    ("hub.frames_per_msg", per frames_sent);
    ("hub.port_waits_per_msg", per (Net.port_waits t.net));
    ("hub.port_wait_us_per_msg", per (Net.port_wait_ns t.net) /. 1e3);
    ("hub.fault_drops", float_of_int (Net.fault_drops t.net));
    ("host.wakeups_per_msg", per (sum (fun n -> Runtime.host_notifications n.rt) t));
    ("cab.cpu_busy_frac", frac (sum (fun n -> Cpu.busy_time (Cab.cpu (cab n))) t));
    ("cab.switches_per_msg", per (sum (fun n -> Cpu.switches (Cab.cpu (cab n))) t));
    ("vme.busy_frac", frac (sum vme_busy t));
    ("vme.bytes_per_msg", per (sum vme_bytes t));
    ( "rx.batches_per_frame",
      ratio
        (sum (fun n -> Rx.completion_batches (Cab.rx (cab n))) t)
        (sum (fun n -> Datalink.frames_in n.stack.Stack.dl) t) );
    ("core.copy_bytes_per_msg", per (Nectar_util.Copy_meter.bytes_copied ()));
    ("core.cab_signals_per_msg", per (sum (fun n -> Runtime.cab_signals n.rt) t));
    ( "mailbox.overflow_drops",
      float_of_int (List.fold_left (fun acc m -> acc + Mailbox.overflow_drops m) 0 mailboxes) );
    ("rmp.retransmits_per_msg", per (sum (fun n -> Rmp.retransmits n.stack.Stack.rmp) t));
    ("rmp.duplicates", float_of_int (sum (fun n -> Rmp.duplicates n.stack.Stack.rmp) t));
    ( "tcp.retx_per_seg",
      ratio
        (sum (fun n -> Tcp.retransmissions n.stack.Stack.tcp) t)
        (sum (fun n -> Tcp.segments_out n.stack.Stack.tcp) t) );
    ( "rpc.duplicate_requests",
      float_of_int (sum (fun n -> Reqresp.duplicate_requests n.stack.Stack.reqresp) t) );
  ]

(* Trace ring size for traced runs: large enough that a whole run fits.
   A run whose ring wrapped fails instead of reporting. *)
let trace_capacity = 1 lsl 21

(* Simulated time per message in each traced span label. *)
let span_us_per_msg tr ~msgs labels =
  let tot = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      let d = s.Trace.s_end - s.Trace.s_begin in
      Hashtbl.replace tot s.Trace.s_label
        (d + Option.value ~default:0 (Hashtbl.find_opt tot s.Trace.s_label)))
    (Trace.spans tr);
  List.map
    (fun (label, metric) ->
      let ns = Option.value ~default:0 (Hashtbl.find_opt tot label) in
      (metric, float_of_int ns /. 1e3 /. float_of_int (max 1 msgs)))
    labels

let instants tr label = List.length (Trace.occurrences tr label)

(* Per-layer numbers read from the tracer of a traced run. *)
let traced_layers tr ~msgs =
  span_us_per_msg tr ~msgs
    [
      ("host.begin_put", "host.begin_put_us_per_msg");
      ("host.write", "host.write_us_per_msg");
      ("host.end_put", "host.end_put_us_per_msg");
      ("host.begin_get", "host.begin_get_us_per_msg");
      ("host.read", "host.read_us_per_msg");
      ("host.end_get", "host.end_get_us_per_msg");
      ("vme.pio", "vme.pio_us_per_msg");
      ("vme.dma", "vme.dma_us_per_msg");
      ("tx.dma", "tx.dma_us_per_msg");
      ("rx.dma", "rx.dma_us_per_msg");
      ("dl.tx", "dl.tx_us_per_msg");
    ]
  @ [
      ("dl.rx_per_msg", ratio (instants tr "dl.rx") msgs);
      ("rx.batch_per_msg", ratio (instants tr "rx.batch") msgs);
      ("rpc.retx", float_of_int (instants tr "rpc.retx"));
      ("trace.events", float_of_int (Trace.recorded tr));
    ]

(* Run the pair to quiescence, timed, with the tracer installed when
   [traced].  Returns host seconds, minor words, the traced per-layer
   numbers and the ring check (both empty when untraced). *)
let run t ~traced ~msgs =
  Nectar_util.Copy_meter.reset ();
  let go () = timed (fun () -> Engine.run t.eng) in
  if not traced then
    let (), host_s, words = go () in
    (host_s, words, [], [])
  else begin
    let tr = Trace.create ~capacity:trace_capacity t.eng in
    Trace.install tr;
    Calls.set_engine (Some t.eng);
    let (), host_s, words =
      Fun.protect go ~finally:(fun () ->
          Trace.uninstall ();
          Calls.set_engine None)
    in
    (host_s, words, traced_layers tr ~msgs,
     [ ("trace ring lost no events", Trace.dropped tr = 0) ])
  end
