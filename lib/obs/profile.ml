let pp_reasons ppf by_reason =
  Fmt.pf ppf "%a"
    Fmt.(list ~sep:comma (fun ppf (r, n) -> Fmt.pf ppf "%s %d" r n))
    by_reason

let pp_report ?(top = 8) ppf (r : Metrics.report) =
  Fmt.pf ppf "== profile: %s (%d cycles) ==@." r.kernel r.total_cycles;
  if r.loops <> [] then begin
    Fmt.pf ppf "loops:@.";
    List.iter
      (fun (l : Metrics.loop_row) ->
        Fmt.pf ppf "  loop %d  header %-14s iters %-6d measured II %.2f"
          l.loop_id l.header l.iterations l.measured_ii;
        (match l.assumed_ii with
        | Some a ->
            Fmt.pf ppf "  assumed II %.2f  (delta %+.2f)" a (l.measured_ii -. a)
        | None -> Fmt.pf ppf "  assumed II unbounded");
        Fmt.pf ppf "@.")
      r.loops
  end;
  if r.arbiters <> [] then begin
    Fmt.pf ppf "arbiters:@.";
    let hot = Metrics.most_contended r in
    List.iter
      (fun (a : Metrics.arb_row) ->
        Fmt.pf ppf "  %-16s grants [%a]%s@." a.alabel
          Fmt.(list ~sep:(any "; ") int)
          a.grant_hist
          (match hot with
          | Some h when h.auid = a.auid -> "  <- most contended"
          | _ -> ""))
      r.arbiters
  end;
  if r.credits <> [] then begin
    Fmt.pf ppf "credit counters:@.";
    List.iter
      (fun (c : Metrics.credit_row) ->
        Fmt.pf ppf "  %-16s grants %-6d returns %-6d exhausted %d cycles@."
          c.klabel c.grants c.returns c.exhausted)
      r.credits
  end;
  (match Metrics.top_stalled r top with
  | [] -> ()
  | stalled ->
      Fmt.pf ppf "top stalled channels:@.";
      List.iter
        (fun (c : Metrics.chan_row) ->
          Fmt.pf ppf "  c%-4d %s -> %s  stalls %d (%a)@." c.cid c.src c.dst
            c.stalls pp_reasons c.by_reason)
        stalled);
  let busiest =
    List.filter (fun (u : Metrics.unit_row) -> u.fires > 0) r.units
    |> List.stable_sort (fun (a : Metrics.unit_row) b ->
           compare b.utilization a.utilization)
    |> List.filteri (fun i _ -> i < top)
  in
  if busiest <> [] then begin
    Fmt.pf ppf "busiest units:@.";
    List.iter
      (fun (u : Metrics.unit_row) ->
        Fmt.pf ppf "  %-16s %-18s util %5.1f%%  fires %d@." u.ulabel u.ukind
          (100.0 *. u.utilization) u.fires)
      busiest
  end;
  if r.buffers <> [] then begin
    Fmt.pf ppf "buffers:@.";
    List.iter
      (fun (b : Metrics.buffer_row) ->
        Fmt.pf ppf
          "  %-16s slots %-3d avg %.2f  p50 %d  p95 %d  max %d@." b.blabel
          b.slots b.avg_occ b.p50_occ b.p95_occ b.max_occ)
      r.buffers
  end
