(* Per-chain checkpoint plumbing: what the inference driver needs to save
   and restore a chain, without knowing about stores, files or cadences. *)

type saved = { state : Sampler_state.t; layout : string }

type hooks = {
  load : key:string -> saved option;
  save : key:string -> sweep:int -> saved -> unit;
  every_sweeps : int option;
  every_seconds : float option;
}

let default_every_seconds = 30.0

let encode_saved sv =
  let w = Codec.writer () in
  Sampler_state.encode w sv.state;
  Codec.string w sv.layout;
  Codec.contents w

let decode_saved payload =
  let r = Codec.reader payload in
  let state = Sampler_state.decode r in
  let layout = Codec.read_string r in
  Codec.expect_end r;
  { state; layout }

let save_now hooks ~key ~layout ~sweep ~state =
  hooks.save ~key ~sweep { state = state (); layout }

let make_control hooks ~key ~layout ~final_sweep =
  let last_save_sweep = ref 0 in
  let last_save_ns = ref (Monotonic_clock.now ()) in
  fun ~sweep ~state ->
    let due_sweeps =
      match hooks.every_sweeps with
      | Some n when n > 0 -> sweep - !last_save_sweep >= n
      | _ -> false
    in
    let due_clock () =
      match hooks.every_seconds with
      | Some s ->
          Int64.to_float (Int64.sub (Monotonic_clock.now ()) !last_save_ns)
          *. 1e-9
          >= s
      | None -> false
    in
    (* Always persist the final sweep: a chain that finished just before a
       kill then resumes instantly instead of replaying from its last
       periodic snapshot. *)
    if due_sweeps || sweep >= final_sweep || due_clock () then begin
      hooks.save ~key ~sweep { state = state (); layout };
      last_save_sweep := sweep;
      last_save_ns := Monotonic_clock.now ()
    end
