(** Clocks, order statistics and process counters shared by every
    workload. *)

(** Seconds on the monotonic clock (never steps with the wall clock). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(** [time f] runs [f] and returns its result with the elapsed seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(** Nearest-rank percentile [p] (0..100) of an unsorted sample; 0 on an
    empty sample. *)
let percentile p xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50.0 xs

(** Geometric mean of positive samples; 0 on an empty sample. *)
let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let s =
        List.fold_left (fun acc x -> acc +. log (Float.max x 1e-12)) 0.0 xs
      in
      exp (s /. float_of_int (List.length xs))

(** Group [(key, sample)] pairs, summarize each key's samples with
    [stat], and return the geometric mean: a per-input cost that does
    not depend on how often each input ran. *)
let geomean_by stat pairs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (k, x) ->
      let xs = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (x :: xs))
    pairs;
  geomean (Hashtbl.fold (fun _ xs acc -> stat xs :: acc) tbl [])

let geomean_of_medians pairs = geomean_by median pairs

let geomean_of_best pairs =
  geomean_by (List.fold_left Float.min infinity) pairs

(** Peak resident set ([VmHWM]) of a live process ("self" or a pid), in
    MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())
