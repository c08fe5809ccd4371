(* Validator for BENCH_sched.json (the `bench-quick` alias runs it
   after `main.exe quick`): thin CLI over Bench_json, which
   holds the strict parser and the schema checks so the test suite can
   exercise them directly.

   Usage: validate_bench_json.exe FILE *)

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_sched.json" in
  let ic =
    try open_in_bin path
    with Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  match Bench_json.validate contents with
  | Ok () -> Printf.printf "%s: ok\n" path
  | Error msg ->
    Printf.eprintf "%s: INVALID: %s\n" path msg;
    exit 1
