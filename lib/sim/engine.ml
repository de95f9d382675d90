(* The engine is two things: an event queue and the processes that run on
   it.  Both sit on every simulated step — each sleep, CPU slice, wait,
   DMA chunk, timer and interrupt is at least one event and usually one
   process switch — so both are written for the simulator's own cost.

   The event queue is a hand-specialised binary min-heap rather than the
   generic [Nectar_util.Binary_heap]: ordering is two monomorphic int
   comparisons (time, then sequence number) inlined into the sift loops —
   no closure call, no polymorphic [compare] — and the run loop peeks and
   pops without allocating options.

   Beside the heap sits the ready ring: a FIFO of the transient events
   scheduled at exactly [clock] (process resumptions, yields, first
   slices), about half of all events.  Ring entries carry their seq and
   label but no event record and never enter the heap; the run loops fire
   whichever of ring head and heap top comes first by (time, seq), which
   is the heap-only order exactly (DESIGN.md §6.11).

   Cancellation is O(1): a cancelled event is only marked dead and popped
   (for free) when its time comes.  Workloads dominated by the
   schedule-then-cancel pattern (an RTO timer per message, almost always
   cancelled by the ack) would grow the heap without bound, so the heap
   compacts — filters the dead entries and re-heapifies in place — whenever
   dead entries outnumber live ones; each cancel pays O(1) amortised.  Each
   event carries a reference to the engine's dead-entry counter so that
   [cancel], which has no engine argument, can maintain it.

   A process switch is an effect: the process performs a suspension, the
   handler hands out a one-shot resume, and resuming puts the process on
   the ready ring.  Unit suspensions (sleep, yield, wait queues, the CPU
   model) cost the effect, the continuation, the caller's register
   closure and one resume closure, and the resume closure is itself the
   ring entry that continues the process — see [park].  DESIGN.md §6.11
   has the word counts. *)

(* Every field except [dead_cell] is mutable so fired transient events
   (sleep wake-ups — events whose handle is never exposed, so they can
   never be cancelled or observed after firing) can be recycled through
   the engine's slab free list instead of re-allocated; [dead_cell] always
   refers to the owning engine's counter, which recycling never changes. *)
type event = {
  mutable time : Sim_time.t;
  mutable seq : int;
  mutable label : string; (* diagnostic name, shown to tie-break policies *)
  mutable live : bool;
  mutable fn : unit -> unit;
  mutable transient : bool; (* recyclable: no handle escaped to a caller *)
  dead_cell : int ref; (* shared with the owning engine's queue *)
}

type candidate = { c_time : Sim_time.t; c_seq : int; c_label : string }
type tie_break = candidate array -> int

type t = {
  mutable clock : Sim_time.t;
  mutable next_seq : int;
  mutable heap : event array;
  mutable size : int;
  dead : int ref; (* cancelled events still in the heap *)
  (* The ready ring, as parallel arrays indexed modulo their common
     power-of-two length: entry [i] fires [r_fn.(i)] at [clock] with seq
     [r_seq.(i)].  A [r_slice] entry is a process's resume closure handed
     back to continue that process (see [park]); the run loop raises
     [slice_turn] before calling it. *)
  mutable r_seq : int array;
  mutable r_label : string array;
  mutable r_fn : (unit -> unit) array;
  mutable r_slice : bool array;
  mutable r_head : int;
  mutable r_len : int;
  mutable slice_turn : bool;
  mutable running : proc;
      (* the process currently executing, for context tracking by the vet
         checkers; [no_proc] inside timer callbacks *)
  no_proc : proc; (* this engine's "no process" sentinel *)
  mutable tie_break : tie_break option;
      (* same-time scheduling policy; None = seq order (the contract) *)
  wake_labels : (string, string) Hashtbl.t; (* name -> "<name>.wake" *)
  yield_labels : (string, string) Hashtbl.t; (* name -> "<name>.yield" *)
  (* Slab free list for transient events (sleep wake-ups).  Disabled by
     default ([pool_max = 0]): every workload then allocates exactly as
     before, keeping the seed benches and the paper tables byte-identical.
     [set_event_pool] turns it on for the fleet worlds, where these records
     dominate minor-heap churn. *)
  mutable pool : event array; (* free slots are [0, pool_len) *)
  mutable pool_len : int;
  mutable pool_max : int; (* 0 = pooling disabled *)
  mutable pool_hits : int;
  mutable pool_misses : int;
}

(* Everything a spawned process's slices, effect handler and resume
   closures need, built once per process so each closure captures one
   value.  Resumes are checked by count: a process has at most one
   suspension outstanding, so the resume of suspension [n] is legal only
   while [resumes < n]. *)
and proc = {
  eng : t;
  pid : int;
  pname : string;
  mutable suspends : int;
  mutable resumes : int;
  mutable wake_label : string; (* "<pname>.wake", looked up on first sleep *)
  mutable yield_label : string; (* "<pname>.yield", looked up on first yield *)
  mutable register : (unit -> unit) -> unit;
      (* the pending unit suspension's register, from handler to [park] *)
  mutable parking : ((unit, unit) Effect.Deep.continuation -> unit) option;
      (* the handler's answer to every unit suspension, built on the first *)
}

(* Process ids are globally unique (not per engine) so checkers observing
   several engines in one program never see a collision.  Atomic because
   the parallel scheduler spawns processes from several domains at once;
   on the single-domain path the counter behaves exactly as the old ref
   (same values in the same order). *)
let pid_counter = Atomic.make 0

type timer = event

exception Process_failure of string * exn

let () =
  Printexc.register_printer (function
    | Process_failure (name, inner) ->
        Some
          (Printf.sprintf "Process_failure(%s, %s)" name
             (Printexc.to_string inner))
    | _ -> None)

let nothing () = ()

(* Placeholder for unused array slots; never scheduled, so its shared
   cells are inert. *)
let dummy_event =
  {
    time = 0;
    seq = 0;
    label = "";
    live = false;
    fn = nothing;
    transient = false;
    dead_cell = ref 0;
  }

(* Start with room for 1k events (8 KB).  Any simulation that does work
   reaches hundreds of queued events immediately, and growing there through
   doubling would copy ~1k event pointers (each through the GC write
   barrier) — measurably slower than paying the allocation once. *)
let initial_capacity = 1024

let create () =
  let rec t =
    {
      clock = Sim_time.zero;
      next_seq = 0;
      heap = Array.make initial_capacity dummy_event;
      size = 0;
      dead = ref 0;
      r_seq = [||];
      r_label = [||];
      r_fn = [||];
      r_slice = [||];
      r_head = 0;
      r_len = 0;
      slice_turn = false;
      running = no_proc;
      no_proc;
      tie_break = None;
      wake_labels = Hashtbl.create 16;
      yield_labels = Hashtbl.create 16;
      pool = [||];
      pool_len = 0;
      pool_max = 0;
      pool_hits = 0;
      pool_misses = 0;
    }
  and no_proc =
    {
      eng = t;
      pid = 0;
      pname = "";
      suspends = 0;
      resumes = 0;
      wake_label = "";
      yield_label = "";
      register = ignore;
      parking = None;
    }
  in
  t

let now t = t.clock

let current_pid t =
  if t.running == t.no_proc then None else Some t.running.pid

let current_process t =
  if t.running == t.no_proc then None else Some t.running.pname

(* [a] strictly before [b]: earlier time, or same time scheduled earlier. *)
let[@inline] before (a : event) (b : event) =
  a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* The sift loops below use unsafe indexing: every index is bounded by
   [size] (itself <= [Array.length heap]) or derives from a parent/child
   index of one that is.  Declared as the primitives, not bound with
   [let]: a [let] alias is a generic out-of-line function (a float-array
   tag test and a call per access), while the primitive is specialised to
   the array type at each use. *)
external uget : 'a array -> int -> 'a = "%array_unsafe_get"
external uset : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let rec sift_up h i (ev : event) =
  if i = 0 then uset h 0 ev
  else
    let parent = (i - 1) / 2 in
    if before ev (uget h parent) then begin
      uset h i (uget h parent);
      sift_up h parent ev
    end
    else uset h i ev

let rec sift_down h size i (ev : event) =
  let l = (2 * i) + 1 in
  if l >= size then uset h i ev
  else begin
    let r = l + 1 in
    let c = if r < size && before (uget h r) (uget h l) then r else l in
    if before (uget h c) ev then begin
      uset h i (uget h c);
      sift_down h size c ev
    end
    else uset h i ev
  end

let push t ev =
  let cap = Array.length t.heap in
  if t.size = cap then begin
    let nh = Array.make (max 16 (cap * 2)) dummy_event in
    Array.blit t.heap 0 nh 0 t.size;
    t.heap <- nh
  end;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1) ev

(* Caller guarantees size > 0.  Returns the root without (re)building any
   option.  Bottom-up deletion: walk the hole down the min-child path to a
   leaf (one comparison per level), then bubble the displaced last element
   back up (usually zero steps, since a heap's last element is
   leaf-large) — about half the comparisons of the textbook sift-down, and
   pops dominate the engine's profile.  (A variant keeping the (time, seq)
   keys in parallel unboxed int arrays was measured ~1.8x slower here:
   tripling the stores per sift level costs more than the saved pointer
   chases, since the event records are minor-heap-contiguous anyway.) *)
let pop_top t =
  let h = t.heap in
  let top = uget h 0 in
  let n = t.size - 1 in
  t.size <- n;
  let last = uget h n in
  uset h n dummy_event;
  if n > 0 then begin
    let i = ref 0 in
    let l = ref 1 in
    while !l < n do
      let r = !l + 1 in
      let c = if r < n && before (uget h r) (uget h !l) then r else !l in
      uset h !i (uget h c);
      i := c;
      l := (2 * c) + 1
    done;
    let j = ref !i in
    let stop = ref false in
    while (not !stop) && !j > 0 do
      let p = (!j - 1) / 2 in
      if before last (uget h p) then begin
        uset h !j (uget h p);
        j := p
      end
      else stop := true
    done;
    uset h !j last
  end;
  top

(* Filter out dead entries and re-heapify in place: O(live), run only when
   the dead outnumber the live, so each cancel costs O(1) amortised. *)
let compact t =
  let h = t.heap in
  let live = ref 0 in
  for i = 0 to t.size - 1 do
    if h.(i).live then begin
      h.(!live) <- h.(i);
      incr live
    end
  done;
  for i = !live to t.size - 1 do
    h.(i) <- dummy_event
  done;
  t.size <- !live;
  t.dead := 0;
  for i = (t.size / 2) - 1 downto 0 do
    let ev = h.(i) in
    sift_down h t.size i ev
  done

let compact_threshold = 64

let maybe_compact t =
  if !(t.dead) > t.size - !(t.dead) && t.size >= compact_threshold then
    compact t

let at t ?(label = "") time fn =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.at: time %d before now %d" time t.clock);
  let ev =
    {
      time;
      seq = t.next_seq;
      label;
      live = true;
      fn;
      transient = false;
      dead_cell = t.dead;
    }
  in
  t.next_seq <- t.next_seq + 1;
  push t ev;
  maybe_compact t;
  ev

let after t ?label span fn = at t ?label (t.clock + span) fn

(* Transient scheduling: the handle never escapes, so the record may come
   from (and return to) the free list.  Only sleep's wake-up uses it, and
   always after [t.clock] (events at [clock] go to the ready ring), so the
   [at] validation is not repeated here. *)
let schedule_transient t ~label time fn =
  let ev =
    if t.pool_len > 0 then begin
      let n = t.pool_len - 1 in
      t.pool_len <- n;
      let ev = uget t.pool n in
      uset t.pool n dummy_event;
      t.pool_hits <- t.pool_hits + 1;
      ev.time <- time;
      ev.seq <- t.next_seq;
      ev.label <- label;
      ev.live <- true;
      ev.fn <- fn;
      ev.transient <- true;
      ev
    end
    else begin
      if t.pool_max > 0 then t.pool_misses <- t.pool_misses + 1;
      {
        time;
        seq = t.next_seq;
        label;
        live = true;
        fn;
        transient = t.pool_max > 0;
        dead_cell = t.dead;
      }
    end
  in
  t.next_seq <- t.next_seq + 1;
  push t ev;
  maybe_compact t

(* Return a fired transient event to the free list.  Run loops call this
   only after [ev.fn ()] returned normally: the record is out of the heap,
   marked dead, and (being transient) unreachable from user code, so the
   next [schedule_transient] may reuse it without ABA hazards.  Clearing
   [fn] and [label] drops the closure and the label string immediately
   rather than pinning them until reuse. *)
let[@inline] recycle t (ev : event) =
  if ev.transient && t.pool_len < t.pool_max then begin
    (if t.pool_len = Array.length t.pool then
       let cap = Array.length t.pool in
       let ncap = min t.pool_max (max 64 (cap * 2)) in
       let np = Array.make ncap dummy_event in
       Array.blit t.pool 0 np 0 cap;
       t.pool <- np);
    ev.fn <- nothing;
    ev.label <- "";
    uset t.pool t.pool_len ev;
    t.pool_len <- t.pool_len + 1
  end

let set_event_pool t ~max_free =
  if max_free < 0 then invalid_arg "Engine.set_event_pool: negative max_free";
  t.pool_max <- max_free;
  if max_free = 0 then begin
    t.pool <- [||];
    t.pool_len <- 0
  end
  else if Array.length t.pool > max_free then begin
    let np = Array.make max_free dummy_event in
    t.pool_len <- min t.pool_len max_free;
    Array.blit t.pool 0 np 0 t.pool_len;
    t.pool <- np
  end

let event_pool_hits t = t.pool_hits
let event_pool_misses t = t.pool_misses
let event_pool_free t = t.pool_len

(* Any event with [live = true] is still in its engine's heap (the run loop
   marks an event dead before firing it), so a first cancel always accounts
   for one in-heap dead entry; later cancels and cancels of fired timers
   no-op. *)
let cancel ev =
  if ev.live then begin
    ev.live <- false;
    ev.fn <- nothing;
    incr ev.dead_cell
  end

(* Its own dead-entry cell, so the record shares nothing mutable with an
   engine or with another inert timer. *)
let inert_timer () = { dummy_event with dead_cell = ref 0 }


(* ---------- the ready ring ---------- *)

(* Ring indices are masked by the arrays' common power-of-two length. *)

let ring_grow t =
  let cap = Array.length t.r_fn in
  let ncap = max 64 (2 * cap) in
  let unwrap a filler =
    let na = Array.make ncap filler in
    for i = 0 to t.r_len - 1 do
      na.(i) <- a.((t.r_head + i) land (cap - 1))
    done;
    na
  in
  t.r_seq <- unwrap t.r_seq 0;
  t.r_label <- unwrap t.r_label "";
  t.r_fn <- unwrap t.r_fn nothing;
  t.r_slice <- unwrap t.r_slice false;
  t.r_head <- 0

(* A ready event in heap form, for while a tie-break policy is installed:
   the policy must see every candidate with its label, so the ring is
   bypassed.  A slice entry raises [slice_turn] itself, as the ring's
   run loop would. *)
let push_ready_event t ~seq ~label ~slice fn =
  let fn =
    if slice then (fun () ->
      t.slice_turn <- true;
      fn ())
    else fn
  in
  push t
    { time = t.clock; seq; label; live = true; fn; transient = false;
      dead_cell = t.dead };
  maybe_compact t

(* Schedule [fn] at [t.clock]: the next seq, and the ring's tail.  The
   ring's entries are therefore in seq order, all at [clock] — the clock
   cannot move while the ring is non-empty, since its head then precedes
   every heap event of a later time. *)
let ready t ~label ~slice fn =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  match t.tie_break with
  | Some _ -> push_ready_event t ~seq ~label ~slice fn
  | None ->
      if t.r_len = Array.length t.r_fn then ring_grow t;
      let i = (t.r_head + t.r_len) land (Array.length t.r_fn - 1) in
      uset t.r_seq i seq;
      uset t.r_label i label;
      uset t.r_fn i fn;
      uset t.r_slice i slice;
      t.r_len <- t.r_len + 1

(* Take the ring's head off; [nothing] replaces the closure so a fired
   resume does not pin its continuation. *)
let[@inline] ring_pop t =
  let i = t.r_head in
  let fn = uget t.r_fn i in
  uset t.r_fn i nothing;
  t.r_head <- (i + 1) land (Array.length t.r_fn - 1);
  t.r_len <- t.r_len - 1;
  fn

let fire_ring t =
  let slice = uget t.r_slice t.r_head in
  let fn = ring_pop t in
  if slice then t.slice_turn <- true;
  fn ()

(* The ring's head fires before the heap's top: the top lies later, or at
   [clock] with a later seq.  Heap events are never before [clock]. *)
let[@inline] ring_first t =
  t.r_len > 0
  && (t.size = 0
     ||
     let top = uget t.heap 0 in
     top.time > t.clock || top.seq > uget t.r_seq t.r_head)

(* Move the ring into the heap, in order, with seqs and labels kept. *)
let flush_ring t =
  while t.r_len > 0 do
    let seq = uget t.r_seq t.r_head and label = uget t.r_label t.r_head in
    let slice = uget t.r_slice t.r_head in
    push_ready_event t ~seq ~label ~slice (ring_pop t)
  done;
  t.r_head <- 0

let set_tie_break t policy =
  t.tie_break <- policy;
  match policy with Some _ -> flush_ring t | None -> ()

(* ---------- processes ---------- *)

(* Effect plumbing: a process performs a suspension; the handler installed
   by [spawn] turns the continuation into a one-shot resume that puts the
   process on the ready ring.  This is the simulated context switch, so
   nothing here allocates beyond what the header comment lists. *)

type _ Effect.t +=
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Suspend_unit : ((unit -> unit) -> unit) -> unit Effect.t

let suspend register = Effect.perform (Suspend register)
let suspend_unit register = Effect.perform (Suspend_unit register)

(* Continue [p] for one slice, with [running] set to it.  A suspension
   returns normally through the handler; [run_body] below is the same for
   the first slice. *)
let run_slice p k v =
  let t = p.eng in
  let saved = t.running in
  t.running <- p;
  match Effect.Deep.continue k v with
  | () -> t.running <- saved
  | exception e ->
      t.running <- saved;
      raise e

let check_resume p n =
  if p.resumes >= n then
    failwith ("Engine: double resume of process " ^ p.pname);
  p.resumes <- n

let resume p k n v =
  check_resume p n;
  ready p.eng ~label:p.pname ~slice:false (fun () -> run_slice p k v)

(* Suspension [n] of [p], unit-valued.  Its resume [wake] serves twice:
   called from outside, it checks and queues itself as a slice entry;
   fired from the ring with [slice_turn] raised, it continues [p].  So a
   unit resume builds no slice closure, and [p] needs no slot for [k]. *)
let park p k =
  let register = p.register in
  p.register <- ignore;
  let n = p.suspends + 1 in
  p.suspends <- n;
  let rec wake () =
    let t = p.eng in
    if t.slice_turn then begin
      t.slice_turn <- false;
      run_slice p k ()
    end
    else begin
      check_resume p n;
      ready t ~label:p.pname ~slice:true wake
    end
  in
  register wake

let parking p =
  match p.parking with
  | Some _ as s -> s
  | None ->
      let s = Some (park p) in
      p.parking <- s;
      s

let handler p =
  let open Effect.Deep in
  {
    retc = (fun () -> ());
    exnc = (fun e -> raise (Process_failure (p.pname, e)));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend_unit register ->
            p.register <- register;
            (parking p : ((a, _) continuation -> _) option)
        | Suspend register ->
            Some
              (fun (k : (a, _) continuation) ->
                let n = p.suspends + 1 in
                p.suspends <- n;
                register (fun v -> resume p k n v))
        | _ -> None);
  }

let run_body p f =
  let t = p.eng in
  let saved = t.running in
  t.running <- p;
  match Effect.Deep.match_with f () (handler p) with
  | () -> t.running <- saved
  | exception e ->
      t.running <- saved;
      raise e

let spawn t ?(name = "proc") f =
  let p =
    {
      eng = t;
      pid = 1 + Atomic.fetch_and_add pid_counter 1;
      pname = name;
      suspends = 0;
      resumes = 0;
      wake_label = "";
      yield_label = "";
      register = ignore;
      parking = None;
    }
  in
  ready t ~label:name ~slice:false (fun () -> run_body p f)

(* The wake-up timers get the process name as label so tie-break
   candidates and schedule counterexamples read as "consumer.wake" rather
   than "?".  Looked up once per process, while it is [running], and built
   once per process name: short-lived processes that share a name (one per
   interrupt) share the label. *)
let label_for tbl p suffix =
  match Hashtbl.find tbl p.pname with
  | label -> label
  | exception Not_found ->
      let label = p.pname ^ suffix in
      Hashtbl.add tbl p.pname label;
      label

let wake_label t =
  let p = t.running in
  if String.length p.wake_label = 0 then
    p.wake_label <- label_for t.wake_labels p ".wake";
  p.wake_label

let yield_label t =
  let p = t.running in
  if String.length p.yield_label = 0 then
    p.yield_label <- label_for t.yield_labels p ".yield";
  p.yield_label

let sleep t span =
  if span < 0 then invalid_arg "Engine.sleep: negative span";
  if span = 0 then ()
  else
    let label = wake_label t in
    suspend_unit (fun resume ->
        schedule_transient t ~label (t.clock + span) resume)

let yield t =
  let label = yield_label t in
  suspend_unit (fun resume -> ready t ~label ~slice:false resume)

(* ---------- running ---------- *)

(* Policy-driven loop, used only when a tie-break policy is installed (the
   schedule explorer in [lib/check]).  The ring is bypassed meanwhile, so
   every event is in the heap.  Each step pops the full set of live events
   sharing the minimal timestamp (they come off the heap in seq order),
   asks the policy which fires next when there is a real choice, and
   pushes the rest back.  O(k log n) extra work per event — irrelevant for
   the small scenarios the explorer drives, and the default loops below
   are untouched when no policy is installed. *)
let run_policy t policy until =
  let continue_run = ref true in
  while !continue_run do
    (* Drop dead entries off the top so emptiness and tmin are about live
       events only. *)
    while t.size > 0 && not t.heap.(0).live do
      ignore (pop_top t);
      decr t.dead
    done;
    if t.size = 0 then begin
      (match until with Some u when u > t.clock -> t.clock <- u | _ -> ());
      continue_run := false
    end
    else begin
      let tmin = t.heap.(0).time in
      match until with
      | Some u when tmin > u ->
          if u > t.clock then t.clock <- u;
          continue_run := false
      | _ ->
          let scratch = ref [] in
          let k = ref 0 in
          while t.size > 0 && t.heap.(0).time = tmin do
            let ev = pop_top t in
            if ev.live then begin
              scratch := ev :: !scratch;
              incr k
            end
            else decr t.dead
          done;
          let cands = Array.of_list (List.rev !scratch) in
          (* seq order: pop order at equal time *)
          let chosen =
            if !k = 1 then 0
            else begin
              let view =
                Array.map
                  (fun e ->
                    { c_time = e.time; c_seq = e.seq; c_label = e.label })
                  cands
              in
              let i = policy view in
              if i < 0 || i >= !k then
                invalid_arg
                  (Printf.sprintf
                     "Engine: tie-break policy chose %d of %d candidates" i !k);
              i
            end
          in
          (* Reinsert the losers before firing: the fired event may cancel
             or depend on them, and they keep their original seqs so the
             later relative order is preserved. *)
          Array.iteri (fun i e -> if i <> chosen then push t e) cands;
          let ev = cands.(chosen) in
          t.clock <- ev.time;
          ev.live <- false;
          ev.fn ();
          recycle t ev
    end
  done

let[@inline] fire_top t =
  let ev = pop_top t in
  if ev.live then begin
    t.clock <- ev.time;
    ev.live <- false;
    ev.fn ();
    recycle t ev
  end
  else decr t.dead

(* The default loops merge the ring and the heap by (time, seq).  An
   [until] before [clock] (a caller may pass one) stops the run without
   moving the clock back. *)
let run ?until t =
  match t.tie_break with
  | Some policy -> run_policy t policy until
  | None -> (
      match until with
      | None ->
          (* Hot loop: no bound check beyond emptiness, no option, no limit
             comparison. *)
          while t.r_len > 0 || t.size > 0 do
            if ring_first t then fire_ring t else fire_top t
          done
      | Some u ->
          let continue_run = ref true in
          while !continue_run do
            if ring_first t then begin
              if t.clock > u then continue_run := false else fire_ring t
            end
            else if t.size > 0 && t.heap.(0).time <= u then fire_top t
            else begin
              if u > t.clock then t.clock <- u;
              continue_run := false
            end
          done)

let pending_events t = t.size - !(t.dead) + t.r_len
let queued_events t = t.size + t.r_len

let register_metrics t m ~prefix =
  let open Nectar_util.Metrics in
  counter m (prefix ^ "pending_events") (fun () -> pending_events t);
  counter m (prefix ^ "queued_events") (fun () -> queued_events t);
  counter m (prefix ^ "pool_hits") (fun () -> t.pool_hits);
  counter m (prefix ^ "pool_misses") (fun () -> t.pool_misses);
  counter m (prefix ^ "pool_free") (fun () -> t.pool_len)

(* Peek the earliest live event without firing it.  Dead entries on top
   of the heap are popped for free (exactly as the run loops would);
   amortised against the cancels that created them.  A non-empty ring
   means an event at [clock], which nothing in the heap precedes. *)
let next_event_time t =
  while t.size > 0 && not t.heap.(0).live do
    ignore (pop_top t);
    decr t.dead
  done;
  if t.r_len > 0 then Some t.clock
  else if t.size = 0 then None
  else Some t.heap.(0).time

(* Order-independent digest of the live pending set, ring included:
   heap-array order is an implementation accident, so per-event hashes are
   combined with addition.  Event seqs are deliberately excluded — two runs
   that reach the same semantic state through commuting reorderings number
   their events differently, and the explorer wants those states to
   collide. *)
let pending_digest t =
  let fnv s =
    let h = ref 0x4bf29ce484222325 in
    String.iter
      (fun c -> h := (!h lxor Char.code c) * 0x100000001b3)
      s;
    !h
  in
  let acc = ref 0 in
  let count = ref 0 in
  let add time label =
    incr count;
    let h = (time * 0x9e3779b9) lxor fnv label in
    let h = h lxor (h lsr 29) in
    let h = h * 0xbf58476d1ce4e5b in
    acc := !acc + (h lxor (h lsr 32))
  in
  for i = 0 to t.size - 1 do
    let e = Array.unsafe_get t.heap i in
    if e.live then add e.time e.label
  done;
  for i = 0 to t.r_len - 1 do
    add t.clock t.r_label.((t.r_head + i) land (Array.length t.r_label - 1))
  done;
  (!acc + (!count * 0x9e3779b97f4a7c1)) land max_int
