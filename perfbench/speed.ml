(** Host speed reference.

    On a shared host the speed of this process drifts in phases of
    seconds, and over hours by up to 2x: one pass of the same specs took
    3.0 s and then 4.8 s a few seconds later. A fixed reference loop,
    timed between specs with the clock stopped, drifts with it. A pass's
    host seconds, divided by the reference loop's median time over the
    pass and multiplied by {!nominal}, are its seconds at a fixed
    reference speed.

    The loop allocates short-lived lists of boxed floats. It drifts with
    the host much as the pipeline's minor-heap allocation does: over
    80 s of cold sweeps, raw pass times ranged ±10% and normalized ones
    ±2.5%. Loops over preallocated arrays tracked the drift only half as
    well. Nothing the loop allocates survives a minor collection, so its
    cost does not grow with the program's heap. *)

(** Seconds the reference loop takes at the reference speed (a 2-vCPU
    x86-64 virtual machine, OCaml 5.1.1, no flambda, quiet host). *)
let nominal = 0.00016

let loop () =
  let acc = ref 0.0 in
  for i = 0 to 1500 do
    let l = List.init 16 (fun k -> float_of_int (i + k)) in
    acc := !acc +. List.fold_left ( +. ) 0.0 l
  done;
  ignore (Sys.opaque_identity !acc : float)

(** Time the reference loop [n] times, appending the times to [into].
    The minor heap is emptied first, so the loop's own collections find
    only its garbage. *)
let sample ~n (into : float list ref) =
  Gc.minor ();
  for _ = 1 to n do
    let t0 = Span.now () in
    loop ();
    into := (Span.now () -. t0) :: !into
  done

(** [scale samples] — the factor from host seconds to seconds at the
    reference speed, given the reference times sampled over a
    measurement. *)
let scale (samples : float list) = nominal /. Measure.median samples
