(* Contract of the benchmark, checked without running a workload: the
   generated inputs are a pure function of the seed, and the metrics the
   program prints are exactly the ones BENCHMARK.json declares. *)

module J = Exec.Jsonl

let failures = ref 0

let check cond msg =
  if not cond then begin
    incr failures;
    prerr_endline ("FAIL: " ^ msg)
  end

let bytes_of jobs = String.concat "\n" (Array.to_list (Array.map Gen.body jobs))

let requests ~seed =
  bytes_of (Gen.batch_jobs ~seed 4000)
  ^ String.concat ""
      (List.init 3 (fun pass -> bytes_of (Gen.worker_pass ~seed ~pass)))

let () =
  check (requests ~seed:1 = requests ~seed:1) "same seed, different requests";
  check
    (requests ~seed:1 <> requests ~seed:2)
    "seeds 1 and 2 give the same requests"

let () =
  let text =
    In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all
  in
  let json =
    match J.parse text with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let get conv key j = Option.bind (J.member key j) conv in
  let list key = Option.value ~default:[] (get J.to_list key json) in
  let str key j = Option.value ~default:"" (get J.to_str key j) in
  let declared key =
    List.map (fun m -> (str "name" m, str "unit" m)) (list key)
  in
  let same_set what printed declared =
    List.iter
      (fun (name, unit) ->
        check (Catalog.valid_name name) (what ^ ": bad metric name " ^ name);
        check
          (List.assoc_opt name declared = Some unit)
          (what ^ ": " ^ name ^ " (" ^ unit ^ ") is not in BENCHMARK.json"))
      printed;
    List.iter
      (fun (name, _) ->
        check (List.mem_assoc name printed)
          (what ^ ": " ^ name ^ " is never printed"))
      declared
  in
  same_set "end_to_end" Catalog.end_to_end (declared "end_to_end");
  same_set "per_layer" Catalog.per_layer (declared "per_layer");
  check
    (List.map (str "name") (list "workloads") = Catalog.workloads)
    "workloads differ from BENCHMARK.json"

let () =
  if !failures > 0 then exit 1;
  print_endline "benchmark contract: ok"
