module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let value t = t.v
  let reset t = t.v <- 0
end

module Summary = struct
  module Welford = Nectar_util.Welford

  (* [sum] is kept beside the Welford state because the paper tables
     print [sum / n], which differs from the running mean in the last
     bits. *)
  type t = {
    w : Welford.t;
    mutable sum : float;
    keep : bool;
    mutable samples : float list; (* reversed *)
  }

  let create ?(keep_samples = false) () =
    { w = Welford.create (); sum = 0.; keep = keep_samples; samples = [] }

  let add t x =
    Welford.add t.w x;
    t.sum <- t.sum +. x;
    if t.keep then t.samples <- x :: t.samples

  let count t = Welford.count t.w
  let mean t = if count t = 0 then 0. else t.sum /. float_of_int (count t)

  let min t =
    if count t = 0 then invalid_arg "Summary.min: empty";
    Welford.min t.w

  let max t =
    if count t = 0 then invalid_arg "Summary.max: empty";
    Welford.max t.w

  let stddev t = Welford.stddev t.w

  let percentile t p =
    if not t.keep then invalid_arg "Summary.percentile: samples not kept";
    if t.samples = [] then invalid_arg "Summary.percentile: empty";
    if not (p >= 0. && p <= 1.) then
      invalid_arg "Summary.percentile: p outside [0,1]";
    let a = Array.of_list t.samples in
    Array.sort Float.compare a;
    let idx = p *. float_of_int (Array.length a - 1) in
    let lo = int_of_float (floor idx) and hi = int_of_float (ceil idx) in
    let frac = idx -. floor idx in
    (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)

  let merge ~into src =
    Welford.merge ~into:into.w src.w;
    into.sum <- into.sum +. src.sum;
    if into.keep then into.samples <- src.samples @ into.samples

  let reset t =
    Welford.reset t.w;
    t.sum <- 0.;
    t.samples <- []
end

module Throughput = struct
  let mbit_per_s ~bytes_moved ~elapsed =
    if elapsed <= 0 then 0.
    else
      float_of_int (bytes_moved * 8) /. (float_of_int elapsed /. 1e9) /. 1e6
end
