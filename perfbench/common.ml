(* Shared measurement plumbing for the benchmark: host clocks, process
   memory, percentiles, the outcome record every workload returns, and
   the benchmark's own call spans. *)

open Nectar_sim

let now_s () = Unix.gettimeofday ()

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of an unsorted sample array (sorted in place). *)
let percentile (a : int array) p =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    Array.sort compare a;
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))
  end

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

(* Host speed.  The machine's speed drifts by tens of per cent over
   minutes (other tenants), which moves every host-time figure of a run
   together.  The calibration kernel is fixed stdlib-only work of the
   same kind as the simulator's (allocation, hashing, pointer chasing),
   independent of the repository's code; it is timed between the timed
   runs, and host times are reported scaled to [calibration_ref_s], the
   kernel's time on the machine the benchmark was written on.  A change
   to the simulator moves the scaled figures; a change of machine speed
   moves the kernel too and cancels. *)
let calibration_ref_s = 0.055

let calibration_kernel () =
  let t0 = now_s () in
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 199_999 do
    let k = (i * 7919) land 0xffff in
    (match Hashtbl.find_opt h k with
     | Some l -> acc := !acc + List.length l
     | None -> ());
    Hashtbl.replace h k [ i; k; i + k ]
  done;
  ignore (Sys.opaque_identity !acc);
  now_s () -. t0

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* What one run of a workload produced.  Everything but [host_s] and
   [words] is simulated (model output) and repeats exactly for a fixed
   seed; [signature] leaves out [traced] too, which only traced runs
   have. *)
type outcome = {
  attempted : int;  (** application operations offered *)
  delivered : int;  (** application messages delivered *)
  failed : int;  (** not delivered, timed out, aborted, or failed a check *)
  checks : (string * bool) list;  (** output checks *)
  lat_p50_ns : int;
  lat_p99_ns : int;
  lat_samples : int;
  goodput_bytes : int;  (** useful payload: no headers, stamps, retransmits *)
  goodput_ns : int;  (** simulated interval the goodput bytes took *)
  sim_ns : int;  (** simulated duration of the run *)
  layers : (string * float) list;  (** per-layer counters, simulated *)
  traced : (string * float) list;
      (** per-layer numbers read from the tracer; empty when untraced *)
  host_s : float;  (** host time of the timed run *)
  words : float;  (** minor words allocated by the timed run *)
}

(* The timed run: host seconds and minor words around [f]. *)
let timed f =
  let w0 = Gc.minor_words () in
  let t0 = now_s () in
  let r = f () in
  let dt = now_s () -. t0 in
  (r, dt, Gc.minor_words () -. w0)

let goodput_mbit_s o =
  if o.goodput_ns = 0 then 0.
  else float_of_int o.goodput_bytes *. 8. /. (float_of_int o.goodput_ns /. 1e9)
       /. 1e6

(* Everything a same-seed re-run must reproduce, as one comparable value. *)
let signature o =
  ( o.attempted,
    o.delivered,
    o.failed,
    (o.lat_p50_ns, o.lat_p99_ns, o.lat_samples),
    (o.goodput_bytes, o.goodput_ns, o.sim_ns),
    o.layers )

(* The benchmark's own spans around each public call it makes.  Recording
   is off unless a traced run turns it on; [start] returns -1 then and
   allocates nothing.  Spans live in memory (one message id per message)
   and are written out once, at exit. *)
module Calls = struct
  let enabled = ref false
  let names : (string, int) Hashtbl.t = Hashtbl.create 16
  let name_of : string array ref = ref [||]
  let cap = ref 0
  let n = ref 0
  let s_name = ref [||]
  let s_msg = ref [||]
  let s_begin = ref [||]
  let s_end = ref [||]
  let s_host_ns = ref [||]
  let s_words = ref [||]
  let eng = ref None

  let reset () =
    Hashtbl.reset names;
    name_of := [||];
    n := 0

  let set_engine e = eng := e

  let sim_now () = match !eng with Some e -> Engine.now e | None -> 0

  let name_id name =
    match Hashtbl.find_opt names name with
    | Some i -> i
    | None ->
        let i = Hashtbl.length names in
        Hashtbl.add names name i;
        name_of := Array.append !name_of [| name |];
        i

  let grow () =
    let c = max 1024 (2 * !cap) in
    let g a z =
      let b = Array.make c z in
      Array.blit !a 0 b 0 !n;
      a := b
    in
    g s_name 0; g s_msg 0; g s_begin 0; g s_end 0;
    g s_host_ns 0.; g s_words 0.;
    cap := c

  let start name ~msg =
    if not !enabled then -1
    else begin
      if !n = !cap then grow ();
      let i = !n in
      incr n;
      !s_name.(i) <- name_id name;
      !s_msg.(i) <- msg;
      !s_begin.(i) <- sim_now ();
      !s_end.(i) <- -1;
      !s_words.(i) <- Gc.minor_words ();
      !s_host_ns.(i) <- now_s ();
      i
    end

  let stop i =
    if i >= 0 then begin
      !s_host_ns.(i) <- (now_s () -. !s_host_ns.(i)) *. 1e9;
      !s_words.(i) <- Gc.minor_words () -. !s_words.(i);
      !s_end.(i) <- sim_now ()
    end

  let around name ~msg f =
    let c = start name ~msg in
    let r = f () in
    stop c;
    r

  type summary = {
    count : int;
    mean_us : float;
    p99_us : float;
    host_us : float;  (** mean host time per call *)
    words : float;  (** mean minor words per call *)
  }

  let summary name =
    match Hashtbl.find_opt names name with
    | None -> { count = 0; mean_us = 0.; p99_us = 0.; host_us = 0.; words = 0. }
    | Some id ->
        let durs = ref [] and host = ref 0. and words = ref 0. in
        for i = 0 to !n - 1 do
          if !s_name.(i) = id && !s_end.(i) >= 0 then begin
            durs := (!s_end.(i) - !s_begin.(i)) :: !durs;
            host := !host +. !s_host_ns.(i);
            words := !words +. !s_words.(i)
          end
        done;
        let a = Array.of_list !durs in
        let c = Array.length a in
        let fc = float_of_int (max 1 c) in
        {
          count = c;
          mean_us = float_of_int (Array.fold_left ( + ) 0 a) /. fc /. 1e3;
          p99_us = float_of_int (percentile a 0.99) /. 1e3;
          host_us = !host /. fc /. 1e3;
          words = !words /. fc;
        }

  (* One line per span: name, message id, sim begin/end (ns), host ns,
     minor words. *)
  let write path =
    let oc = open_out path in
    Printf.fprintf oc "name\tmsg\tsim_begin_ns\tsim_end_ns\thost_ns\twords\n";
    for i = 0 to !n - 1 do
      Printf.fprintf oc "%s\t%d\t%d\t%d\t%.0f\t%.0f\n" !name_of.(!s_name.(i))
        !s_msg.(i) !s_begin.(i) !s_end.(i) !s_host_ns.(i) !s_words.(i)
    done;
    close_out oc
end

(* A benchmark workload: [build] makes the world (inputs included) and
   stops before the first simulated event; [run] runs it to quiescence,
   with the simulator's tracer installed when [traced] (a workload may
   build a shorter run for that).  [setup] is what setup_s times,
   [setup_reps] times after each timed run. *)
type 'w workload = {
  setup : seed:int -> unit;
  setup_reps : int;
  build : traced:bool -> seed:int -> 'w;
  run : traced:bool -> 'w -> outcome;
}

type packed = W : 'w workload -> packed
