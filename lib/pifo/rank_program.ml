open Sfq_base

type regs = { mutable aux : int; mutable eligible : int }

type t = {
  name : string;
  regs : regs;
  shaped : bool;
  rank : now:float -> slot:int -> Packet.t -> int;
  on_dequeue : key:int -> aux:int -> empty:bool -> unit;
  on_idle : unit -> unit;
  horizon : now:float -> int;
  attach : (unit -> int) -> unit;
  on_close : now:float -> slot:int -> Packet.flow -> unit;
  vtime : unit -> float;
  stale : now:float -> slot:int -> bool;
}

let regs () = { aux = 0; eligible = 0 }
let no_dequeue ~key:_ ~aux:_ ~empty:_ = ()
let no_idle () = ()
let no_horizon ~now:_ = 0
let no_attach _ = ()
let no_close ~now:_ ~slot:_ (_ : Packet.flow) = ()
let no_vtime () = 0.0
let never_stale ~now:_ ~slot:_ = false
