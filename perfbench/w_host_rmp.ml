(* host-rmp: the full Figure 6 path with RMP as the transport.  A host
   process on host0 puts each 64-byte message into a CAB mailbox with
   Hostlib (shared-memory mode); a CAB thread on cab0 takes it and sends
   it with Rmp.send_string; a host process on host1 gets it out of
   cab1's inbox with Hostlib.  Arrivals are open-loop Poisson at a fixed
   simulated rate below saturation, and each message's latency runs from
   its due time to the receiver's end_get, so backlog counts. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Common
module Hostlib = Nectar_host.Hostlib
module Host = Nectar_host.Host

let payload_bytes = 64
let count = 40_000

(* A traced run keeps every trace event of the run in memory, so it runs
   the first quarter of the messages. *)
let traced_count = count / 4
let port = 900

(* Mean interarrival: about 70 % of the path's capacity, measured as the
   delivery rate of a fully backlogged run of this workload (one message
   per 143.2 us of simulated time when this was written).  A fixed
   constant, so a change to the path shows as latency, not as a
   different offered load. *)
let interval_ns = 204_600

type t = {
  p : Pair.t;
  n : int;
  payloads : string array;
  due : int array;
  late : int array;
  lat : int array;
  mutable got : int;
  mutable bad : int;
  mutable send_failures : int;
  mailboxes : Mailbox.t list;
}

let build ~traced ~seed =
  let count = if traced then traced_count else count in
  let p = Pair.create ~hosts:true in
  let rng = Rng.create ~seed in
  let due = Array.make count 0 in
  let t = ref 0 in
  for i = 0 to count - 1 do
    t := !t + int_of_float (Rng.exponential rng ~mean:(float_of_int interval_ns));
    due.(i) <- !t
  done;
  let payloads =
    Array.init count (fun i ->
        let b = Bytes.create payload_bytes in
        Bytes.set_int64_be b 0 (Int64.of_int i);
        for k = 8 to payload_bytes - 1 do
          Bytes.set b k (Char.chr (Rng.int rng 256))
        done;
        Bytes.unsafe_to_string b)
  in
  let rt_a = p.Pair.a.Pair.rt and rt_b = p.Pair.b.Pair.rt in
  let drv n = Option.get n.Pair.drv in
  let send_mb = Runtime.create_mailbox rt_a ~name:"hr-send" () in
  let inbox = Runtime.create_mailbox rt_b ~name:"hr-inbox" ~port () in
  let w =
    { p; n = count; payloads; due; late = Array.make count 0; lat = Array.make count 0;
      got = 0; bad = 0; send_failures = 0; mailboxes = [ send_mb; inbox ] }
  in
  let h_send =
    Calls.around "call.Hostlib.attach" ~msg:0 (fun () ->
        Hostlib.attach (drv p.Pair.a) send_mb ~mode:Hostlib.Shared_memory
          ~readers:`Cab)
  in
  let h_in =
    Calls.around "call.Hostlib.attach" ~msg:1 (fun () ->
        Hostlib.attach (drv p.Pair.b) inbox ~mode:Hostlib.Shared_memory
          ~readers:`Host)
  in
  let eng = p.Pair.eng in
  let dst_cab = Stack.node_id p.Pair.b.Pair.stack in
  let rmp = p.Pair.a.Pair.stack.Stack.rmp in
  Pair.cab_thread p.Pair.a ~name:"rmp-sender" (fun ctx ->
      for i = 0 to count - 1 do
        let m = Calls.around "call.Mailbox.begin_get" ~msg:i (fun () -> Mailbox.begin_get ctx send_mb) in
        let s = Message.read_string m ~pos:0 ~len:(Message.length m) in
        Mailbox.end_get ctx m;
        try
          Calls.around "call.Rmp.send_string" ~msg:i (fun () ->
              Rmp.send_string ctx rmp ~dst_cab ~dst_port:port s)
        with Rmp.Delivery_timeout _ -> w.send_failures <- w.send_failures + 1
      done);
  Host.spawn_process (Pair.Cab_driver.host (drv p.Pair.a)) ~name:"generator" (fun ctx ->
      for i = 0 to count - 1 do
        let now = Engine.now eng in
        if now < due.(i) then Engine.sleep eng (due.(i) - now);
        w.late.(i) <- Engine.now eng - due.(i);
        let m = Calls.around "call.Hostlib.begin_put" ~msg:i (fun () ->
            Hostlib.begin_put ctx h_send payload_bytes) in
        Calls.around "call.Hostlib.write_string" ~msg:i (fun () ->
            Hostlib.write_string ctx h_send m ~pos:0 payloads.(i));
        Calls.around "call.Hostlib.end_put" ~msg:i (fun () -> Hostlib.end_put ctx h_send m)
      done);
  Host.spawn_process (Pair.Cab_driver.host (drv p.Pair.b)) ~name:"sink" (fun ctx ->
      while w.got + w.send_failures < count do
        let m = Calls.around "call.Hostlib.begin_get" ~msg:w.got (fun () -> Hostlib.begin_get ctx h_in) in
        let s = Calls.around "call.Hostlib.read_string" ~msg:w.got (fun () -> Hostlib.read_string ctx h_in m) in
        Calls.around "call.Hostlib.end_get" ~msg:w.got (fun () -> Hostlib.end_get ctx h_in m);
        let k = w.got in
        if String.length s = payload_bytes
           && Int64.to_int (String.get_int64_be s 0) = k
           && String.equal s payloads.(k)
        then w.lat.(k) <- Engine.now eng - due.(k)
        else w.bad <- w.bad + 1;
        w.got <- k + 1
      done);
  w

let run ~traced w =
  let eng = w.p.Pair.eng in
  let count = w.n in
  let host_s, words, traced_layers, trace_ok = Pair.run w.p ~traced ~msgs:count in
  let ok = w.got - w.bad in
  let lat = Array.sub w.lat 0 w.got in
  {
    attempted = count;
    delivered = ok;
    failed = count - ok;
    checks =
      [
        (Printf.sprintf "every message arrived once, in order, intact (%d/%d, %d bad)"
           ok count w.bad, ok = count && w.bad = 0 && w.send_failures = 0);
      ]
      @ trace_ok;
    lat_p50_ns = percentile lat 0.50;
    lat_p99_ns = percentile lat 0.99;
    lat_samples = Array.length lat;
    goodput_bytes = ok * payload_bytes;
    goodput_ns = Engine.now eng;
    sim_ns = Engine.now eng;
    layers =
      Pair.layers w.p ~msgs:count ~mailboxes:w.mailboxes
      @ [ ("gen.late_p99_us", float_of_int (percentile (Array.copy w.late) 0.99) /. 1e3);
          ("proto.useful_frame_ratio", ratio ok (Nectar_hub.Network.frames_sent w.p.Pair.net)) ];
    traced = traced_layers;
    host_s;
    words;
  }

let workload : packed =
  W
    {
      setup = (fun ~seed -> ignore (build ~traced:false ~seed));
      setup_reps = 4;
      build;
      run;
    }
