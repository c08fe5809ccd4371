type t = {
  mutable next : int;  (* smallest never-issued id *)
  free : int Sfq_util.Vec.t;  (* closed ids, a stack: most recently closed on top *)
  open_ : bool Flow_table.t;
  mutable live : int;
  mutable peak_live : int;
  mutable opened : int;
}

let create () =
  {
    next = 0;
    free = Sfq_util.Vec.create ();
    open_ = Flow_table.create ~default:(fun _ -> false);
    live = 0;
    peak_live = 0;
    opened = 0;
  }

let open_flow t =
  let id =
    if Sfq_util.Vec.is_empty t.free then begin
      let id = t.next in
      t.next <- id + 1;
      id
    end
    else Sfq_util.Vec.pop t.free
  in
  Flow_table.set t.open_ id true;
  t.live <- t.live + 1;
  t.opened <- t.opened + 1;
  if t.live > t.peak_live then t.peak_live <- t.live;
  id

let close_flow t id =
  if not (Flow_table.find t.open_ id) then
    invalid_arg (Printf.sprintf "Flow_registry.close_flow: flow %d is not open" id);
  Flow_table.set t.open_ id false;
  t.live <- t.live - 1;
  Sfq_util.Vec.push t.free id

let is_open t id = Flow_table.find t.open_ id
let live t = t.live
let peak_live t = t.peak_live
let opened t = t.opened
let high_water t = t.next
