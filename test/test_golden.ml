(* Golden-trace regression corpus.

   The property oracles check that the theorems hold; they structurally
   cannot notice a behavioral change that stays inside the bounds (a
   different tie-break, a reordered-but-still-fair schedule). These
   tests recompute the compact digests — per-flow packet counts, service
   order hashes, %h-exact headline numbers — for E1, E3/Fig-1(b) and
   Table 1 under the default seeds and diff them against the checked-in
   corpus, so silent drift fails loudly with the first differing line.

   On an intentional change, regenerate with
     dune exec bin/sfq_sweep.exe -- golden > test/golden/digests.expected *)

(* Found from the test directory (as [dune runtest] runs it), from its
   build directory, or from the repository root. *)
let corpus_path =
  let root = "test/golden/digests.expected" in
  Option.value ~default:root
    (List.find_opt Sys.file_exists
       [ "golden/digests.expected"; "../golden/digests.expected"; root ])

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let strip_comments lines =
  List.filter (fun l -> not (String.length l > 0 && l.[0] = '#')) lines

let test_golden_digests () =
  let expected = strip_comments (read_lines corpus_path) in
  let actual =
    strip_comments (String.split_on_char '\n' (Sfq_experiments.Registry.golden_corpus ()))
    |> List.filter (fun l -> l <> "")
  in
  let expected = List.filter (fun l -> l <> "") expected in
  if List.length expected = 0 then Alcotest.fail "golden corpus is empty";
  let rec diff i = function
    | [], [] -> ()
    | e :: es, a :: aa ->
      if not (String.equal e a) then
        Alcotest.failf
          "golden digest drift at line %d:@.  expected: %s@.  actual:   %s@.(an \
           intentional change needs test/golden/digests.expected regenerated — \
           see the file header)"
          i e a
      else diff (i + 1) (es, aa)
    | es, aa ->
      Alcotest.failf "golden corpus length drift: %d expected vs %d actual lines"
        (i + List.length es) (i + List.length aa)
  in
  diff 1 (expected, actual)

(* The three compact renderers must themselves be deterministic: two
   in-process runs produce the same text (guards against accidental
   dependence on wall clock, global Random state, or GC layout). *)
let test_compact_self_deterministic () =
  List.iter
    (fun id ->
      let once = Sfq_experiments.Registry.compact ~id ~quick:true () in
      let twice = Sfq_experiments.Registry.compact ~id ~quick:true () in
      match (once, twice) with
      | Some a, Some b ->
        if not (String.equal a b) then Alcotest.failf "%s: compact digest unstable" id
      | _ -> Alcotest.failf "%s: compact digest missing" id)
    [ "example-1" ]

let () =
  Alcotest.run "golden"
    [
      ( "corpus",
        [
          Alcotest.test_case "E1/E3/Table-1 digests match checked-in corpus" `Quick
            test_golden_digests;
          Alcotest.test_case "compact renderer is deterministic" `Quick
            test_compact_self_deterministic;
        ] );
    ]
