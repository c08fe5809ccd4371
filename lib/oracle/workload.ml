type arrival = { at : float; flow : int; len : int; rate : float option }
type reweight = { at : float; flow : int; rate : float }
type churn = { at : float; flow : int }
type rate_change = { at : float; capacity : float }

type buffer = {
  per_flow : int option;
  aggregate : int option;
  policy : Sfq_base.Buffered.policy;
}

type t = {
  capacity : float;
  weights : (int * float) list;
  arrivals : arrival list;
  reweights : reweight list;
  churn : churn list;
  rate_changes : rate_change list;
  buffer : buffer option;
}

let flows t = List.map fst t.weights

let rate_of t flow =
  match List.assoc_opt flow t.weights with Some r -> r | None -> 0.0

let lmax t flow =
  List.fold_left
    (fun acc (a : arrival) ->
      if a.flow = flow then Float.max acc (float_of_int a.len) else acc)
    0.0 t.arrivals

(* An array indexed by flow id up to the largest id in the workload,
   filled once. Every id outside it is absent from the workload, so
   [rate_of] and [lmax] answer 0 there too. *)
let by_flow t ~fill =
  let top =
    List.fold_left
      (fun acc (a : arrival) -> Stdlib.max acc a.flow)
      (List.fold_left (fun acc (f, _) -> Stdlib.max acc f) (-1) t.weights)
      t.arrivals
  in
  if
    List.exists (fun (f, _) -> f < 0) t.weights
    || List.exists (fun (a : arrival) -> a.flow < 0) t.arrivals
  then invalid_arg "Workload: flow ids must be non-negative";
  let a = Array.make (top + 1) 0.0 in
  fill a;
  fun flow -> if flow >= 0 && flow <= top then a.(flow) else 0.0

let rate_table t =
  (* written last to first, so the first binding wins as in [rate_of] *)
  by_flow t ~fill:(fun a -> List.iter (fun (f, r) -> a.(f) <- r) (List.rev t.weights))

let lmax_table t =
  by_flow t ~fill:(fun a ->
      List.iter
        (fun (x : arrival) -> a.(x.flow) <- Float.max a.(x.flow) (float_of_int x.len))
        t.arrivals)

let pp ppf t =
  Format.fprintf ppf "@[<v>capacity %g@," t.capacity;
  Format.fprintf ppf "weights %s@,"
    (String.concat ", "
       (List.map (fun (f, r) -> Printf.sprintf "%d:%g" f r) t.weights));
  List.iter
    (fun (a : arrival) ->
      Format.fprintf ppf "t=%-8g flow %d len %d%s@," a.at a.flow a.len
        (match a.rate with None -> "" | Some r -> Printf.sprintf " rate %g" r))
    t.arrivals;
  List.iter
    (fun (r : reweight) ->
      Format.fprintf ppf "t=%-8g reweight flow %d -> %g@," r.at r.flow r.rate)
    t.reweights;
  List.iter
    (fun (c : churn) -> Format.fprintf ppf "t=%-8g close flow %d@," c.at c.flow)
    t.churn;
  List.iter
    (fun (r : rate_change) ->
      Format.fprintf ppf "t=%-8g capacity -> %g@," r.at r.capacity)
    t.rate_changes;
  (match t.buffer with
  | None -> ()
  | Some b ->
    Format.fprintf ppf "buffer %s per_flow=%s aggregate=%s@,"
      (Sfq_base.Buffered.policy_name b.policy)
      (match b.per_flow with None -> "inf" | Some n -> string_of_int n)
      (match b.aggregate with None -> "inf" | Some n -> string_of_int n));
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t

let max_len = 1000
let len_choices = [ 100; 200; 500; 1000 ]

let gen ?(reweights = false) ?(rate_overrides = true) ?(churn = false)
    ?(overload = false) ?(rate_fluct = false) () =
  let open QCheck.Gen in
  let* capacity = oneofl [ 100.0; 1_000.0; 8_000.0 ] in
  let* nflows = int_range 1 5 in
  let* raw = list_repeat nflows (oneofl [ 0.5; 1.0; 2.0; 4.0; 8.0 ]) in
  let* util = float_range 0.5 0.95 in
  let total = List.fold_left ( +. ) 0.0 raw in
  let weights =
    List.mapi (fun i w -> (i + 1, w /. total *. util *. capacity)) raw
  in
  let flow_ids = List.map fst weights in
  let srv = float_of_int max_len /. capacity in
  let gap =
    frequency
      [
        (4, pure 0.0);
        (3, float_bound_inclusive srv);
        (2, float_bound_inclusive (5.0 *. srv));
        (1, float_range (5.0 *. srv) (20.0 *. srv));
      ]
  in
  let one =
    let* g = gap in
    let* flow = oneofl flow_ids in
    let* len = oneofl len_choices in
    let* scale =
      if rate_overrides then
        frequency
          [ (9, pure None); (1, map (fun s -> Some s) (float_range 0.3 1.0)) ]
      else pure None
    in
    pure (g, flow, len, scale)
  in
  let* n = int_range 5 80 in
  let* raws = list_repeat n one in
  let clock = ref 0.0 in
  let arrivals =
    List.map
      (fun (g, flow, len, scale) ->
        clock := !clock +. g;
        let rate = Option.map (fun s -> s *. List.assoc flow weights) scale in
        { at = !clock; flow; len; rate })
      raws
  in
  let horizon = !clock in
  let* rws =
    if not reweights then pure []
    else
      let one_rw =
        let* at = float_bound_inclusive (Float.max horizon srv) in
        let* flow = oneofl flow_ids in
        let* factor = oneofl [ 0.5; 2.0 ] in
        pure { at; flow; rate = factor *. List.assoc flow weights }
      in
      let* k = int_range 0 2 in
      map
        (List.sort (fun (a : reweight) b -> compare a.at b.at))
        (list_repeat k one_rw)
  in
  (* The stress draws come AFTER every pre-existing draw and consume no
     randomness when switched off ([pure]), so the frozen deterministic
     pools (fixed seeds) stay byte-identical. *)
  let span = Float.max horizon (5.0 *. srv) in
  let* ch =
    if not churn then pure []
    else
      let one_c =
        let* at = float_bound_inclusive span in
        let* flow = oneofl flow_ids in
        pure ({ at; flow } : churn)
      in
      let* k = int_range 1 4 in
      map (List.sort (fun (a : churn) b -> compare a.at b.at)) (list_repeat k one_c)
  in
  let* rcs =
    if not rate_fluct then pure []
    else
      let one_rc =
        let* at = float_bound_inclusive span in
        let* factor = oneofl [ 0.5; 0.8; 1.25 ] in
        pure { at; capacity = factor *. capacity }
      in
      let* k = int_range 0 2 in
      map
        (List.sort (fun (a : rate_change) b -> compare a.at b.at))
        (list_repeat k one_rc)
  in
  let* buffer =
    if not overload then pure None
    else
      let* per_flow = oneofl [ Some 1; Some 2; Some 4; None ] in
      let* aggregate = oneofl [ Some 4; Some 8; Some 16 ] in
      let* policy =
        oneofl
          Sfq_base.Buffered.[ Drop_tail; Drop_front; Longest_queue ]
      in
      pure (Some { per_flow; aggregate; policy })
  in
  pure
    { capacity; weights; arrivals; reweights = rws; churn = ch;
      rate_changes = rcs; buffer }

let shrink t yield =
  QCheck.Shrink.list t.arrivals (fun arrivals -> yield { t with arrivals });
  if t.reweights <> [] then yield { t with reweights = [] };
  if t.churn <> [] then yield { t with churn = [] };
  if t.rate_changes <> [] then yield { t with rate_changes = [] };
  if t.buffer <> None then yield { t with buffer = None };
  if List.exists (fun (a : arrival) -> a.rate <> None) t.arrivals then
    yield
      {
        t with
        arrivals =
          List.map (fun (a : arrival) -> { a with rate = None }) t.arrivals;
      }

let arbitrary ?reweights ?rate_overrides ?churn ?overload ?rate_fluct () =
  QCheck.make ~print:to_string ~shrink
    (gen ?reweights ?rate_overrides ?churn ?overload ?rate_fluct ())

let deterministic_pool ?reweights ?rate_overrides ?churn ?overload ?rate_fluct
    ~seed ~n () =
  QCheck.Gen.generate
    ~rand:(Random.State.make [| seed |])
    ~n
    (gen ?reweights ?rate_overrides ?churn ?overload ?rate_fluct ())
