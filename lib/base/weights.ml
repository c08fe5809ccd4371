type t = { lookup : Packet.flow -> float }

let check w = if w <= 0.0 then invalid_arg "Weights: weight must be positive"

let uniform w =
  check w;
  { lookup = (fun _ -> w) }

(* A listed weight is kept boxed, one [W] block per listed id: a flat
   [float array] would box every weight it hands back. *)
type boxed = W of float

let of_list ?(default = 1.0) assoc =
  check default;
  List.iter (fun (_, w) -> check w) assoc;
  let is_dense f = f >= 0 && f < Flow_table.dense_limit in
  (* Listed ids in the dense range index an array sized by the largest
     of them; only the others need a hashtable. Later bindings
     overwrite earlier ones in both. *)
  let n = List.fold_left (fun n (f, _) -> if is_dense f then max n (f + 1) else n) 0 assoc in
  let dense = Array.make n (W default) in
  List.iter (fun (f, w) -> if is_dense f then dense.(f) <- W w) assoc;
  let listed f =
    let (W w) = Array.unsafe_get dense f in
    w
  in
  if List.for_all (fun (f, _) -> is_dense f) assoc then
    { lookup = (fun f -> if f >= 0 && f < n then listed f else default) }
  else begin
    let sparse = Hashtbl.create 16 in
    List.iter (fun (f, w) -> if not (is_dense f) then Hashtbl.replace sparse f w) assoc;
    (* [mem] then [find]: [find_opt] allocates a [Some] per hit. *)
    {
      lookup =
        (fun f ->
          if f >= 0 && f < n then listed f
          else if Hashtbl.mem sparse f then Hashtbl.find sparse f
          else default);
    }
  end

let of_fun f = { lookup = f }

let get t flow =
  let w = t.lookup flow in
  check w;
  w

let set t flow w =
  check w;
  { lookup = (fun f -> if f = flow then w else t.lookup f) }

let total t flows = List.fold_left (fun acc f -> acc +. get t f) 0.0 flows
