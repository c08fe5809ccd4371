type t = { lookup : Packet.flow -> float }

let check w = if w <= 0.0 then invalid_arg "Weights: weight must be positive"

let uniform w =
  check w;
  { lookup = (fun _ -> w) }

let of_list ?(default = 1.0) assoc =
  check default;
  List.iter (fun (_, w) -> check w) assoc;
  let table = Hashtbl.create 16 in
  List.iter (fun (f, w) -> Hashtbl.replace table f w) assoc;
  (* [mem] then [find] on a hit: [find_opt] allocates a [Some] per hit,
     and a raised [Not_found] costs more on the many misses of
     unlisted flows. *)
  { lookup = (fun f -> if Hashtbl.mem table f then Hashtbl.find table f else default) }

let of_fun f = { lookup = f }

let get t flow =
  let w = t.lookup flow in
  check w;
  w

let set t flow w =
  check w;
  { lookup = (fun f -> if f = flow then w else t.lookup f) }

let total t flows = List.fold_left (fun acc f -> acc +. get t f) 0.0 flows
