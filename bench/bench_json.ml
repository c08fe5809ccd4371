(* Strict JSON parsing + schema checks for BENCH_sched.json. See the
   mli for why this is hand-rolled and strict. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Bad of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/') ->
          Buffer.add_char b (Option.get (peek ()));
          advance ()
        | Some 'n' ->
          Buffer.add_char b '\n';
          advance ()
        | Some 't' ->
          Buffer.add_char b '\t';
          advance ()
        | Some ('b' | 'f' | 'r') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done
        | _ -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let chunk = String.sub s start (!pos - start) in
    match float_of_string_opt chunk with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" chunk)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field name = function
  | Obj kvs -> (
    match List.assoc_opt name kvs with
    | Some v -> v
    | None -> raise (Bad (Printf.sprintf "missing field %S" name)))
  | _ -> raise (Bad (Printf.sprintf "expected object around %S" name))

let check_pos_int ~series ~name row =
  match field name row with
  | Num f when Float.is_integer f && f > 0.0 -> ()
  | _ -> raise (Bad (Printf.sprintf "%s: %s must be a positive integer" series name))

let positive ~series ~name row =
  match field name row with
  | Num x when x > 0.0 -> x
  | _ -> raise (Bad (Printf.sprintf "%s: %s must be a positive number" series name))

(* A median with its quartiles, in order: a file whose quartiles
   contradict their median was not written by the bench. Returns the
   lower quartile. *)
let check_band ~series (median, p25, p75) row =
  let lo = positive ~series ~name:p25 row
  and m = positive ~series ~name:median row
  and hi = positive ~series ~name:p75 row in
  if not (lo <= m && m <= hi) then
    raise
      (Bad
         (Printf.sprintf "%s: quartiles out of order: %s %g, %s %g, %s %g" series p25 lo
            median m p75 hi));
  lo

let ns_band = ("ns_per_packet", "ns_p25", "ns_p75")

(* The rows of a non-empty array member, each passed to [check]. *)
let check_series json series check =
  match field series json with
  | List [] -> raise (Bad (Printf.sprintf "%s is empty" series))
  | List rows ->
    List.iter check rows;
    rows
  | _ -> raise (Bad (Printf.sprintf "%s must be an array" series))

let check_scaling json series ~depth =
  ignore
    (check_series json series (fun row ->
         (match field "discipline" row with
         | Str _ -> ()
         | _ -> raise (Bad (series ^ ": discipline must be a string")));
         check_pos_int ~series ~name:"flows" row;
         if depth then check_pos_int ~series ~name:"depth" row;
         ignore (check_band ~series ns_band row)))

let check_meta meta =
  List.iter
    (fun name ->
      match field name meta with
      | Str s when s <> "" -> ()
      | _ -> raise (Bad (Printf.sprintf "meta: %s must be a non-empty string" name)))
    [ "git_sha"; "timestamp_utc"; "hostname" ]

(* The observability contract: a disabled tracer on the hot path is
   nearly free, under 5% of an untraced twin. Its allocation is pinned
   exactly by test_obs; this is the timing side, and it fails the file
   only when the whole interquartile band of the per-round ratios lies
   past the claim, so one unlucky round cannot fail it. *)
let disabled_ratio_limit = 1.05

let modes = [ "disabled"; "ring"; "jsonl" ]

let check_overhead json =
  let series = "tracing_overhead" in
  let rows =
    check_series json series (fun row ->
        let mode =
          match field "mode" row with
          | Str m when List.mem m modes -> m
          | Str m -> raise (Bad (Printf.sprintf "%s: unknown mode %S" series m))
          | _ -> raise (Bad (series ^ ": mode must be a string"))
        in
        check_pos_int ~series ~name:"flows" row;
        check_pos_int ~series ~name:"depth" row;
        ignore (positive ~series ~name:"untraced_ns_per_packet" row);
        ignore (check_band ~series ns_band row);
        let ratio_p25 = check_band ~series ("ratio", "ratio_p25", "ratio_p75") row in
        if mode = "disabled" && ratio_p25 >= disabled_ratio_limit then
          raise
            (Bad
               (Printf.sprintf
                  "%s: disabled tracer's ratio_p25 %.4f reaches %.2f: the whole band \
                   breaches the 5%% budget"
                  series ratio_p25 disabled_ratio_limit)))
  in
  List.iter
    (fun mode ->
      if not (List.exists (fun row -> field "mode" row = Str mode) rows) then
        raise (Bad (Printf.sprintf "%s: missing mode %S" series mode)))
    modes

let validate contents =
  match
    let json = parse contents in
    (match field "schema" json with
    | Str "sfq-bench-sched/9" -> ()
    | Str "sfq-bench-sched/8" ->
      raise (Bad "stale schema sfq-bench-sched/8: regenerate with bench/main.exe")
    | _ -> raise (Bad "unexpected schema"));
    check_meta (field "meta" json);
    check_scaling json "flow_scaling" ~depth:false;
    check_scaling json "depth_scaling" ~depth:true;
    check_overhead json
  with
  | () -> Ok ()
  | exception Bad msg -> Error msg
