(* lossy-mix: one CAB pair with default stacks on a HUB that drops 1 %
   of frames.  cab0 streams 1 KB TCP writes and 1 KB RMP messages to
   cab1 while cab1 makes closed-loop 64-byte request-response calls to
   cab0.  The only workload on which every retransmission timer,
   duplicate suppression and TCP recovery run. *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Common
module Net = Nectar_hub.Network

let chunk = 1024
let tcp_writes = 1_024
let rmp_count = 1_024
let rpc_count = 4_000
let rpc_clients = 4
let rpc_bytes = 64

(* Seeded think time before each call, uniform in [0, rpc_think_ns):
   calls meet the bulk streams at varying phases. *)
let rpc_think_ns = 100_000
let tcp_port = 5000
let rmp_port = 6000
let rpc_port = 7000

(* Loss is stratified: exactly one frame in every [loss_period] is
   dropped, at a seeded offset within its block, so the loss rate is
   1 % on every seed and only which frames are hit varies. *)
let loss_period = 100

type t = {
  p : Pair.t;
  tcp_digest : string;
  tcp_in : Buffer.t;
  mutable tcp_segments : int;
  mutable tcp_done_at : int;
  mutable tcp_failed : bool;
  rmp_payloads : string array;
  mutable rmp_got : int;
  mutable rmp_bad : int;
  mutable rmp_done_at : int;
  mutable rmp_failed : int;
  rpc_lat : int array;
  mutable rpc_ok : int;
  mutable rpc_bad : int;
  mutable rpc_timeouts : int;
  mailboxes : Mailbox.t list ref;
}

let random_string rng n = String.init n (fun _ -> Char.chr (Rng.int rng 256))
let reply req = String.init (String.length req) (fun i -> req.[String.length req - 1 - i])

let build ~traced:_ ~seed =
  let p = Pair.create ~hosts:false in
  let eng = p.Pair.eng in
  let loss = Rng.stream ~seed ~index:0 and data = Rng.stream ~seed ~index:1 in
  let frame = ref 0 and victim = ref 0 in
  Net.set_fault_hook p.Pair.net
    (Some
       (fun _ ->
         let k = !frame mod loss_period in
         if k = 0 then victim := Rng.int loss loss_period;
         incr frame;
         if k = !victim then `Drop else `Deliver));
  let tcp_chunks = Array.init tcp_writes (fun _ -> random_string data chunk) in
  let rmp_payloads =
    Array.init rmp_count (fun i ->
        let b = Bytes.of_string (random_string data chunk) in
        Bytes.set_int64_be b 0 (Int64.of_int i);
        Bytes.unsafe_to_string b)
  in
  let rpc_reqs = Array.init rpc_count (fun _ -> random_string data rpc_bytes) in
  let rpc_think = Array.init rpc_count (fun _ -> Rng.int data rpc_think_ns) in
  let w =
    {
      p;
      tcp_digest = Digest.string (String.concat "" (Array.to_list tcp_chunks));
      tcp_in = Buffer.create (tcp_writes * chunk);
      tcp_segments = 0;
      tcp_done_at = 0;
      tcp_failed = false;
      rmp_payloads;
      rmp_got = 0;
      rmp_bad = 0;
      rmp_done_at = 0;
      rmp_failed = 0;
      rpc_lat = Array.make rpc_count 0;
      rpc_ok = 0;
      rpc_bad = 0;
      rpc_timeouts = 0;
      mailboxes = ref [];
    }
  in
  let a = p.Pair.a and b = p.Pair.b in
  (* TCP bulk stream a -> b *)
  Tcp.listen b.Pair.stack.Stack.tcp ~port:tcp_port ~on_accept:(fun conn ->
      w.mailboxes := Tcp.recv_mailbox conn :: !(w.mailboxes);
      Pair.cab_thread b ~name:"tcp-sink" (fun ctx ->
          while Buffer.length w.tcp_in < tcp_writes * chunk do
            let s = Tcp.recv_string ctx conn in
            Buffer.add_string w.tcp_in s;
            w.tcp_segments <- w.tcp_segments + 1
          done;
          w.tcp_done_at <- Engine.now eng));
  Pair.cab_thread a ~name:"tcp-src" (fun ctx ->
      try
        let conn =
          Tcp.connect ctx a.Pair.stack.Stack.tcp ~dst:(Stack.addr b.Pair.stack)
            ~dst_port:tcp_port ()
        in
        Array.iteri
          (fun i s -> Calls.around "call.Tcp.send" ~msg:i (fun () -> Tcp.send ctx conn s))
          tcp_chunks
      with Tcp.Connection_refused | Tcp.Connection_timed_out | Tcp.Connection_reset ->
        w.tcp_failed <- true);
  (* RMP stream a -> b *)
  let inbox = Runtime.create_mailbox b.Pair.rt ~name:"lm-rmp" ~port:rmp_port () in
  w.mailboxes := inbox :: !(w.mailboxes);
  let dst_cab = Stack.node_id b.Pair.stack in
  Pair.cab_thread a ~name:"rmp-src" (fun ctx ->
      Array.iteri
        (fun i s ->
          try
            Calls.around "call.Rmp.send_string" ~msg:i (fun () ->
                Rmp.send_string ctx a.Pair.stack.Stack.rmp ~dst_cab ~dst_port:rmp_port s)
          with Rmp.Delivery_timeout _ -> w.rmp_failed <- w.rmp_failed + 1)
        rmp_payloads);
  Pair.cab_thread b ~name:"rmp-sink" (fun ctx ->
      while w.rmp_got + w.rmp_failed < rmp_count do
        let m = Mailbox.begin_get ctx inbox in
        let s = Message.read_string m ~pos:0 ~len:(Message.length m) in
        Mailbox.end_get ctx m;
        if not (String.equal s rmp_payloads.(w.rmp_got)) then w.rmp_bad <- w.rmp_bad + 1;
        w.rmp_got <- w.rmp_got + 1
      done;
      w.rmp_done_at <- Engine.now eng);
  (* closed-loop calls b -> a *)
  Reqresp.register_server a.Pair.stack.Stack.reqresp ~port:rpc_port
    ~mode:Reqresp.Thread_server (fun _ctx req -> reply req);
  let server = Stack.node_id a.Pair.stack in
  for c = 0 to rpc_clients - 1 do
    Pair.cab_thread b ~name:(Printf.sprintf "rpc-client%d" c) (fun ctx ->
        for i = c * rpc_count / rpc_clients to ((c + 1) * rpc_count / rpc_clients) - 1 do
          let req = rpc_reqs.(i) in
          Engine.sleep eng rpc_think.(i);
          let t0 = Engine.now eng in
          match
            Calls.around "call.Reqresp.call" ~msg:i (fun () ->
                Reqresp.call ctx b.Pair.stack.Stack.reqresp ~dst_cab:server
                  ~dst_port:rpc_port req)
          with
          | resp when String.equal resp (reply req) ->
              w.rpc_lat.(w.rpc_ok) <- Engine.now eng - t0;
              w.rpc_ok <- w.rpc_ok + 1
          | _ -> w.rpc_bad <- w.rpc_bad + 1
          | exception Reqresp.Call_timeout _ -> w.rpc_timeouts <- w.rpc_timeouts + 1
        done)
  done;
  w

let run ~traced w =
  let eng = w.p.Pair.eng in
  let host_s, words, traced_layers, trace_ok =
    Pair.run w.p ~traced ~msgs:(tcp_writes + rmp_count + rpc_count)
  in
  let tcp_bytes = tcp_writes * chunk in
  let tcp_ok =
    (not w.tcp_failed)
    && Buffer.length w.tcp_in = tcp_bytes
    && String.equal (Digest.string (Buffer.contents w.tcp_in)) w.tcp_digest
  in
  let rmp_ok = w.rmp_got - w.rmp_bad in
  let attempted = tcp_writes + rmp_count + rpc_count in
  let delivered = (if tcp_ok then tcp_writes else 0) + rmp_ok + w.rpc_ok in
  let lat = Array.sub w.rpc_lat 0 w.rpc_ok in
  let useful = w.tcp_segments + rmp_ok + (2 * w.rpc_ok) in
  let msgs = max 1 delivered in
  {
    attempted;
    delivered;
    failed = attempted - delivered;
    checks =
      [
        ("TCP byte stream digest matches", tcp_ok);
        (Printf.sprintf "every RPC reply matches its request (%d/%d)" w.rpc_ok rpc_count,
         w.rpc_ok = rpc_count);
        (Printf.sprintf "RMP delivered exactly once, in order (%d/%d)" rmp_ok rmp_count,
         rmp_ok = rmp_count && w.rmp_failed = 0);
      ]
      @ trace_ok;
    lat_p50_ns = percentile lat 0.50;
    lat_p99_ns = percentile lat 0.99;
    lat_samples = Array.length lat;
    goodput_bytes = (if tcp_ok then tcp_bytes else 0) + (rmp_ok * chunk);
    goodput_ns = max w.tcp_done_at w.rmp_done_at;
    sim_ns = Engine.now eng;
    layers =
      Pair.layers w.p ~msgs ~mailboxes:!(w.mailboxes)
      @ [ ("proto.useful_frame_ratio", ratio useful (Net.frames_sent w.p.Pair.net)) ];
    traced = traced_layers;
    host_s;
    words;
  }

let workload : packed =
  W { setup = (fun ~seed -> ignore (build ~traced:false ~seed)); setup_reps = 1; build; run }
