type value =
  | Count of int
  | Gauge of float
  | Hist of { n : int; mean : float; stddev : float; min : float; max : float }

type entry =
  | Counter_thunk of (unit -> int)
  | Gauge_thunk of (unit -> float)
  | Histogram of Welford.t

type t = { entries : (string, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 64 }

let register t name entry =
  if Hashtbl.mem t.entries name then
    invalid_arg (Printf.sprintf "Metrics: %S already registered" name);
  Hashtbl.replace t.entries name entry

let counter t name read = register t name (Counter_thunk read)
let gauge t name read = register t name (Gauge_thunk read)

let histogram t name = register t name (Histogram (Welford.create ()))

let observe t name x =
  match Hashtbl.find_opt t.entries name with
  | Some (Histogram h) -> Welford.add h x
  | Some _ | None ->
      invalid_arg (Printf.sprintf "Metrics.observe: %S is not a histogram" name)

let merge t src =
  Hashtbl.iter
    (fun name entry ->
      match entry with
      | Counter_thunk _ | Gauge_thunk _ ->
          (* thunks read live owner state; there is nothing to fold *)
          ()
      | Histogram h -> (
          match Hashtbl.find_opt t.entries name with
          | Some (Histogram dst) -> Welford.merge ~into:dst h
          | Some _ ->
              invalid_arg
                (Printf.sprintf "Metrics.merge: %S is not a histogram" name)
          | None ->
              let dst = Welford.create () in
              Welford.merge ~into:dst h;
              register t name (Histogram dst)))
    src.entries

let read = function
  | Counter_thunk f -> Count (f ())
  | Gauge_thunk f -> Gauge (f ())
  | Histogram h ->
      Hist
        {
          n = Welford.count h;
          mean = Welford.mean h;
          stddev = Welford.stddev h;
          min = Welford.min h;
          max = Welford.max h;
        }

let snapshot t =
  Hashtbl.fold (fun name e acc -> (name, read e) :: acc) t.entries []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dump ?(out = stdout) t =
  let snap = snapshot t in
  let width =
    List.fold_left (fun w (name, _) -> Stdlib.max w (String.length name)) 0 snap
  in
  List.iter
    (fun (name, v) ->
      match v with
      | Count n -> Printf.fprintf out "  %-*s %d\n" width name n
      | Gauge g -> Printf.fprintf out "  %-*s %.3f\n" width name g
      | Hist h ->
          if h.n = 0 then Printf.fprintf out "  %-*s n=0\n" width name
          else
            Printf.fprintf out
              "  %-*s n=%d mean=%.1f stddev=%.1f min=%.1f max=%.1f\n" width
              name h.n h.mean h.stddev h.min h.max)
    snap
