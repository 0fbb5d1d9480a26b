(** In-memory spans recorded around calls into the pipeline's layers.

    A span has a name (the layer), a parent (the span open when it
    started), start and stop times in seconds, and the minor words the
    domain allocated while it was open. Spans stay in memory until the
    benchmark ends. A span's self time is its duration minus the part of
    it covered by its children. *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span, -1 at the root *)
  name : string;
  start : float;
  stop : float;
  minor_words : float;
}

type t = {
  mutable next : int;
  mutable stack : int list;  (** ids of the open spans, innermost first *)
  mutable closed : span list;  (** most recently closed first *)
}

let create () = { next = 0; stack = []; closed = [] }

(** Monotonic clock in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(** [record t name f] runs [f ()] inside a span named [name]. The span
    is closed (and [f]'s exception re-raised) if [f] raises. *)
let record t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let w0 = Gc.minor_words () in
  let start = now () in
  let close () =
    let stop = now () in
    let minor_words = Gc.minor_words () -. w0 in
    t.stack <- List.tl t.stack;
    t.closed <- { id; parent; name; start; stop; minor_words } :: t.closed
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(** The closed spans in start order. *)
let spans t = List.sort (fun a b -> compare a.id b.id) t.closed

let duration s = s.stop -. s.start

(** Each span paired with its self time: its duration minus its
    children's. Spans come from one recorder on one domain, so a span's
    children never overlap each other or outlive it. *)
let self_times (spans : span list) : (span * float) list =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)))
    spans

type layer = {
  calls : int;
  total_s : float;  (** summed durations *)
  self_s : float;  (** summed self times *)
  words : float;  (** summed minor words, children included *)
}

(** Per-name totals. *)
let by_name (spans : span list) : (string * layer) list =
  List.fold_left
    (fun acc (s, self) ->
      let l =
        Option.value (List.assoc_opt s.name acc)
          ~default:{ calls = 0; total_s = 0.0; self_s = 0.0; words = 0.0 }
      in
      let l =
        { calls = l.calls + 1;
          total_s = l.total_s +. duration s;
          self_s = l.self_s +. self;
          words = l.words +. s.minor_words }
      in
      (s.name, l) :: List.remove_assoc s.name acc)
    [] (self_times spans)
  |> List.rev

(** Chrome trace-event JSON (opens in Perfetto or chrome://tracing):
    one complete event per span, times in microseconds from the first
    span, minor words as an argument. *)
let to_chrome_json (spans : span list) : string =
  let b = Buffer.create 4096 in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  Buffer.add_string b "{\"traceEvents\": [";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n  {";
      Run.Json.add_key b "name";
      Run.Json.add_str b s.name;
      Buffer.add_string b ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, ";
      Run.Json.add_key b "ts";
      Run.Json.add_fixed b 3 ((s.start -. t0) *. 1e6);
      Buffer.add_string b ", ";
      Run.Json.add_key b "dur";
      Run.Json.add_fixed b 3 (duration s *. 1e6);
      Buffer.add_string b ", \"args\": {";
      Run.Json.add_key b "minor_words";
      Run.Json.add_num b s.minor_words;
      Buffer.add_string b "}}")
    spans;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
