open Sfq_util
open Sfq_base

type node = {
  owner : int;  (* hierarchy id, to reject foreign class handles *)
  cid : int;  (* 0 = root, then creation order *)
  mutable kind : kind;
  mutable edge : edge option;  (* None for the root *)
}

and kind = Internal of internal | Leaf of Sched.t

and internal = {
  (* The class's PIFO: its *active* child edges, ordered by (start
     tag, activation/emission sequence). The seq doubles as the heap
     uid so equal start tags pop in activation order, exactly the
     float hierarchy's (stag, seq) scan. The children list keeps every
     edge reachable for the traversal paths (backlog, evict, close —
     closing must reset inner per-flow state even in a currently-empty
     leaf). The heap's payload is the edge's handle in [edges]. *)
  pifo : Iheap.t;
  edges : edge Slab.t;
  mutable children : edge list;
  mutable v : int;
  mutable max_finish_served : int;
  mutable next_seq : int;
}

and edge = {
  child : node;
  sor : float;  (* Tag.scale / weight, fixed at creation *)
  parent : node;
  mutable stag : int;
  mutable fprev : int;  (* finish tag of the child's previous emission *)
  mutable active : bool;
  mutable seq : int;
}

type class_ = node

type t = {
  id : int;
  codec : Tag.t;
  root_node : node;
  mutable classifier : (Packet.t -> class_) option;
  mutable count : int;
  mutable next_cid : int;
}

let next_id = ref 0

let fresh_internal () =
  Internal
    {
      pifo = Iheap.create ();
      edges = Slab.create ();
      children = [];
      v = 0;
      max_finish_served = 0;
      next_seq = 0;
    }

let create ?frac_bits () =
  incr next_id;
  let id = !next_id in
  {
    id;
    codec = Tag.make ?frac_bits ();
    root_node = { owner = id; cid = 0; kind = fresh_internal (); edge = None };
    classifier = None;
    count = 0;
    next_cid = 1;
  }

let root t = t.root_node

let internal_of node =
  match node.kind with
  | Internal i -> i
  | Leaf _ -> invalid_arg "Pifo_tree: parent class is a leaf"

let add_edge t ~parent ~weight child_kind =
  if weight <= 0.0 then invalid_arg "Pifo_tree: weight must be positive";
  if parent.owner <> t.id then invalid_arg "Pifo_tree: class from another hierarchy";
  let i = internal_of parent in
  let child = { owner = t.id; cid = t.next_cid; kind = child_kind; edge = None } in
  t.next_cid <- t.next_cid + 1;
  let edge =
    {
      child;
      sor = Tag.scale_over t.codec ~rate:weight;
      parent;
      stag = 0;
      fprev = 0;
      active = false;
      seq = 0;
    }
  in
  child.edge <- Some edge;
  i.children <- i.children @ [ edge ];
  child

let add_class t ~parent ~weight = add_edge t ~parent ~weight (fresh_internal ())
let add_leaf t ~parent ~weight inner = add_edge t ~parent ~weight (Leaf inner)

let set_classifier t f = t.classifier <- Some f

let classifier_by_flow assoc =
  let table = Hashtbl.create 16 in
  List.iter (fun (f, c) -> Hashtbl.replace table f c) assoc;
  fun pkt -> Hashtbl.find table pkt.Packet.flow

let rec node_peek node =
  match node.kind with
  | Leaf inner -> inner.Sched.peek ()
  | Internal i -> (
    match Iheap.min_elt i.pifo with
    | None -> None
    | Some h -> node_peek (Slab.get i.edges h).child)

let subtree_nonempty node =
  match node.kind with
  | Leaf inner -> inner.Sched.size () > 0
  | Internal i -> not (Iheap.is_empty i.pifo)

(* Walk from a leaf to the root activating edges whose subtree just
   became non-empty: push into the parent PIFO at S = max(v, F_prev).
   Stops at the first already-active edge. *)
let rec activate_upwards node =
  match node.edge with
  | None -> ()
  | Some e ->
    if not e.active then begin
      let i = internal_of e.parent in
      e.stag <- (if i.v > e.fprev then i.v else e.fprev);
      e.seq <- i.next_seq;
      i.next_seq <- i.next_seq + 1;
      e.active <- true;
      Iheap.add i.pifo ~key:e.stag ~tie:0 ~uid:e.seq (Slab.put i.edges e);
      activate_upwards e.parent
    end

let enqueue t ~now pkt =
  let classify =
    match t.classifier with
    | Some f -> f
    | None -> invalid_arg "Pifo_tree.enqueue: no classifier set"
  in
  let leaf = classify pkt in
  if leaf.owner <> t.id then invalid_arg "Pifo_tree.enqueue: class from another hierarchy";
  match leaf.kind with
  | Internal _ -> invalid_arg "Pifo_tree.enqueue: classifier returned a non-leaf class"
  | Leaf inner ->
    let was_empty = inner.Sched.size () = 0 in
    inner.Sched.enqueue ~now pkt;
    t.count <- t.count + 1;
    if was_empty then activate_upwards leaf

(* One scheduling transaction per level: pop the PIFO's minimum edge,
   emit from its subtree, push the edge back (rank = next start tag)
   if the subtree is still non-empty. *)
let rec node_dequeue node ~now =
  match node.kind with
  | Leaf inner -> inner.Sched.dequeue ~now
  | Internal i -> (
    match Iheap.min_elt i.pifo with
    | None -> None
    | Some h -> (
      let e = Slab.take i.edges h in
      Iheap.remove_root i.pifo;
      match node_peek e.child with
      | None -> assert false (* active edge over an empty subtree *)
      | Some head ->
        (* the emitted head packet's length fixes this emission's
           finish tag, F = S + l/w *)
        let ftag = Tag.sat_add e.stag (Tag.delta ~sor:e.sor ~len:head.Packet.len) in
        i.v <- e.stag;
        let p = node_dequeue e.child ~now in
        e.fprev <- ftag;
        if ftag > i.max_finish_served then i.max_finish_served <- ftag;
        if subtree_nonempty e.child then begin
          e.stag <- ftag;
          e.seq <- i.next_seq;
          i.next_seq <- i.next_seq + 1;
          Iheap.add i.pifo ~key:e.stag ~tie:0 ~uid:e.seq (Slab.put i.edges e)
        end
        else e.active <- false;
        (* v stays frozen at the emission's start tag when the subtree
           empties — see Hsfq for why bumping here would overtax
           same-instant refills; only the root bumps below. *)
        p))

let dequeue t ~now =
  match node_dequeue t.root_node ~now with
  | None ->
    (match t.root_node.kind with
    | Internal i -> if i.max_finish_served > i.v then i.v <- i.max_finish_served
    | Leaf _ -> ());
    None
  | Some p ->
    t.count <- t.count - 1;
    Some p

let peek t = node_peek t.root_node
let size t = t.count

let rec node_backlog node flow =
  match node.kind with
  | Leaf inner -> inner.Sched.backlog flow
  | Internal i ->
    List.fold_left (fun acc e -> acc + node_backlog e.child flow) 0 i.children

let backlog t flow = node_backlog t.root_node flow

let class_vtime t node =
  if node.owner <> t.id then invalid_arg "Pifo_tree.class_vtime: class from another hierarchy";
  match node.kind with Internal i -> Tag.decode t.codec i.v | Leaf _ -> 0.0

let class_id t node =
  if node.owner <> t.id then invalid_arg "Pifo_tree.class_id: class from another hierarchy";
  node.cid

(* Inverse of activate_upwards: removals can empty a subtree without a
   dequeue; the edge must then leave its parent's PIFO or node_peek's
   invariant breaks. Tags are untouched — the class keeps its
   virtual-time charge, like a flow under eq. 4. *)
let rec deactivate_upwards node =
  match node.edge with
  | None -> ()
  | Some e ->
    if e.active && not (subtree_nonempty node) then begin
      e.active <- false;
      let i = internal_of e.parent in
      (match Iheap.remove_matching i.pifo ~pred:(fun h -> Slab.get i.edges h == e) with
      | Some (_, h) -> ignore (Slab.take i.edges h)
      | None -> ());
      deactivate_upwards e.parent
    end

let evict t ~now victim flow =
  let rec find node =
    match node.kind with
    | Leaf inner ->
      if inner.Sched.backlog flow = 0 then None
      else begin
        match inner.Sched.evict ~now victim flow with
        | None -> None
        | Some p ->
          t.count <- t.count - 1;
          deactivate_upwards node;
          Some p
      end
    | Internal i ->
      let rec among = function
        | [] -> None
        | e :: rest -> ( match find e.child with Some p -> Some p | None -> among rest)
      in
      among i.children
  in
  find t.root_node

let close_flow t ~now flow =
  let rec go node acc =
    match node.kind with
    | Leaf inner ->
      let flushed = inner.Sched.close_flow ~now flow in
      if flushed <> [] then begin
        t.count <- t.count - List.length flushed;
        deactivate_upwards node
      end;
      acc @ flushed
    | Internal i -> List.fold_left (fun acc e -> go e.child acc) acc i.children
  in
  go t.root_node []

let sched t =
  {
    Sched.name = "pifo-hsfq";
    enqueue = (fun ~now pkt -> enqueue t ~now pkt);
    dequeue = (fun ~now -> dequeue t ~now);
    peek = (fun () -> peek t);
    size = (fun () -> size t);
    backlog = (fun flow -> backlog t flow);
    evict = (fun ~now victim flow -> evict t ~now victim flow);
    close_flow = (fun ~now flow -> close_flow t ~now flow);
  }
