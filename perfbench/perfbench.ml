(* The repository's benchmark: four closed-loop workloads over C(16,16),
   a correctness gate, and a traced per-layer ladder.  Everything here
   drives the libraries from outside, through their public functions;
   see README.md in this directory for why each workload exists. *)

module RT = Cn_runtime.Network_runtime
module Clock = Cn_runtime.Clock
module Metrics = Cn_runtime.Metrics
module Reservoir = Cn_runtime.Metrics.Reservoir
module V = Cn_runtime.Validator
module Svc = Cn_service.Service
module Fab = Cn_fabric.Fabric
module Frame = Cn_proto.Frame
module Server = Cn_proto.Server
module Client = Cn_proto.Client

(* C(16,16): depth (lg²w + lg w)/2 = 10 (Theorem 4.1). *)
let width = 16
let shards = 2
let sessions = 16

(* fabric-solo: one Fabric.read per [group] writes. *)
let group = 64

(* service-combine: 16 sessions pinned [sessions / lanes] per wire. *)
let lanes = 4

(* wire-pipelined: requests per write. *)
let depth = 16

(* Op streams are generated once, before any timed region, and replayed
   cyclically; a power of two so the replay index is a mask. *)
let stream_len = 1 lsl 16
let mask = stream_len - 1
let setup_reps = 21
let ladder_ops = 256
let reservoir_capacity = 1 lsl 16

type workload = Fabric_solo | Service_combine | Wire_rtt | Wire_pipelined

let workloads =
  [
    ("fabric-solo", Fabric_solo);
    ("service-combine", Service_combine);
    ("wire-rtt", Wire_rtt);
    ("wire-pipelined", Wire_pipelined);
  ]

(* ------------------------------------------------------------------ *)
(* Seeded op streams. *)

let op_inc = 0
let op_dec = 1
let op_read = 2

type stream = { kinds : int array; who : int array }

(* [who.(i)] is the session of op [i].  A decrement is drawn only while
   its session's net count is positive, so no session, lane or shard
   ever goes below zero; each pass nets at least zero, so cyclic replay
   keeps the property. *)
let gen ~seed ~salt ~dec_in ~read_in ~who_of =
  let rng = Random.State.make [| seed; salt |] in
  let balance = Array.make sessions 0 in
  let ops = Array.make stream_len op_inc in
  let who = Array.make stream_len 0 in
  for i = 0 to stream_len - 1 do
    let s = who_of rng i in
    who.(i) <- s;
    let op =
      if read_in > 0 && Random.State.int rng read_in = 0 then op_read
      else if balance.(s) > 0 && Random.State.int rng dec_in = 0 then op_dec
      else op_inc
    in
    if op = op_inc then balance.(s) <- balance.(s) + 1
    else if op = op_dec then balance.(s) <- balance.(s) - 1;
    ops.(i) <- op
  done;
  { kinds = ops; who }

(* About a quarter decrements, over random sessions. *)
let solo_stream seed =
  gen ~seed ~salt:1 ~dec_in:4 ~read_in:0 ~who_of:(fun rng _ ->
      Random.State.int rng sessions)

(* One op per session per round; one in three a decrement. *)
let combine_stream seed =
  gen ~seed ~salt:2 ~dec_in:3 ~read_in:0 ~who_of:(fun _ i -> i mod sessions)

(* One connection: an eighth reads, a quarter of the rest decrements. *)
let wire_stream seed =
  gen ~seed ~salt:3 ~dec_in:4 ~read_in:8 ~who_of:(fun _ _ -> 0)

(* ------------------------------------------------------------------ *)
(* Tallies, spans and the correctness gate. *)

type tally = {
  mutable ops : int;  (** operations attempted *)
  mutable failed : int;  (** refused, disconnected or wrong *)
  mutable incs : int;
  mutable decs : int;
  mutable checks : int;  (** end-of-run gate checks *)
  mutable bad_checks : int;
}

let tally () =
  { ops = 0; failed = 0; incs = 0; decs = 0; checks = 0; bad_checks = 0 }

let net tl = tl.incs - tl.decs

let check tl ok =
  tl.checks <- tl.checks + 1;
  if not ok then tl.bad_checks <- tl.bad_checks + 1

(* A span kind: count, total duration and a sample of durations, in ns.
   Spans are recorded by this benchmark around its calls into a layer. *)
type span = { mutable n : int; mutable total : int; mutable lat : Reservoir.t }

let span () =
  { n = 0; total = 0; lat = Reservoir.create ~capacity:reservoir_capacity () }

let reset sp =
  sp.n <- 0;
  sp.total <- 0;
  sp.lat <- Reservoir.create ~capacity:reservoir_capacity ()

let add sp d =
  sp.n <- sp.n + 1;
  sp.total <- sp.total + d;
  Reservoir.add sp.lat d

let percentiles sp =
  match Metrics.reservoir_summary [ sp.lat ] with
  | Some l -> (l.p50, l.p99)
  | None -> (nan, nan)

(* The final Strict shutdown: step property and token conservation at
   quiescence.  A failure is a failed gate check, not a crash. *)
let strict tl f =
  check tl (match f () with r -> V.passed r | exception V.Invalid _ -> false)

(* Runs [unit] until [seconds] have passed (at least once).  Returns the
   elapsed nanoseconds. *)
let timed seconds unit =
  let t0 = Clock.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let now = ref t0 in
  while
    unit ();
    now := Clock.now_ns ();
    !now < deadline
  do
    ()
  done;
  !now - t0

(* The first line of [file] that satisfies [p]. *)
let find_line p file =
  match open_in file with
  | exception Sys_error _ -> None
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> None
        | l when p l -> Some l
        | _ -> go ()
      in
      let r = go () in
      close_in ic;
      r

let ms_since t0 = float_of_int (Clock.now_ns () - t0) /. 1e6

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let topology () = Cn_core.Counting.network ~w:width ~t:width

(* ------------------------------------------------------------------ *)
(* fabric-solo: blocking writes over 16 sessions of a 2-shard fabric. *)

type fabric_env = { fab : Fab.t; fsess : Fab.session array }

let fabric_setup () =
  let fab = Fab.create ~shards (topology ()) in
  { fab; fsess = Array.init sessions (fun _ -> Fab.session fab) }

let fabric_writes env st tl pos n =
  for k = 0 to n - 1 do
    let i = (pos + k) land mask in
    let s = env.fsess.(st.who.(i)) in
    if st.kinds.(i) = op_dec then
      match Fab.decrement s with
      | Ok _ -> tl.decs <- tl.decs + 1
      | Error _ -> tl.failed <- tl.failed + 1
    else
      match Fab.increment s with
      | Ok _ -> tl.incs <- tl.incs + 1
      | Error _ -> tl.failed <- tl.failed + 1
  done;
  tl.ops <- tl.ops + n

(* One group: [group] writes, then a read.  One domain drives the
   fabric, so it is quiescent at the read, which must equal the net
   count exactly. *)
let fabric_group env st tl ~rtt ~writes ~reads pos () =
  let a = Clock.now_ns () in
  fabric_writes env st tl !pos group;
  let b = Clock.now_ns () in
  let v = Fab.read env.fab in
  let c = Clock.now_ns () in
  tl.ops <- tl.ops + 1;
  if v <> net tl then tl.failed <- tl.failed + 1;
  add rtt (c - a);
  (match writes with Some sp -> add sp (b - a) | None -> ());
  (match reads with Some sp -> add sp (c - b) | None -> ());
  pos := (!pos + group) land mask

let fabric_finish ?(bias = 0) env tl =
  check tl (Fab.read env.fab = net tl + bias);
  strict tl (fun () -> Fab.shutdown ~policy:V.Strict env.fab)

(* ------------------------------------------------------------------ *)
(* service-combine: rounds of submit-all then await-all. *)

type combine_env = {
  svc : Svc.t;
  csess : Svc.session array;
  pending : bool array;
}

let combine_env svc =
  let per = sessions / lanes in
  {
    svc;
    csess = Array.init sessions (fun s -> Svc.session ~wire:(s / per) svc);
    pending = Array.make sessions false;
  }

let combine_setup () = combine_env (Svc.create (topology ()))

let combine_round env st tl ~rtt pos () =
  let a = Clock.now_ns () in
  let p = !pos in
  for s = 0 to sessions - 1 do
    let op = if st.kinds.(p + s) = op_dec then Svc.Dec else Svc.Inc in
    match Svc.submit env.csess.(s) op with
    | Ok () -> env.pending.(s) <- true
    | Error _ ->
        env.pending.(s) <- false;
        tl.failed <- tl.failed + 1
  done;
  for s = 0 to sessions - 1 do
    if env.pending.(s) then begin
      ignore (Svc.await env.csess.(s) : int);
      if st.kinds.(p + s) = op_dec then tl.decs <- tl.decs + 1
      else tl.incs <- tl.incs + 1
    end
  done;
  tl.ops <- tl.ops + sessions;
  add rtt (Clock.now_ns () - a);
  pos := (p + sessions) land mask

(* The service's counter value: net tokens out of the network. *)
let runtime_value rt = Cn_sequence.Sequence.sum (RT.exit_distribution rt)
let service_value svc = runtime_value (Svc.runtime svc)

let service_finish ?(bias = 0) svc tl =
  check tl (service_value svc = net tl + bias);
  strict tl (fun () -> Svc.shutdown ~policy:V.Strict svc)

(* ------------------------------------------------------------------ *)
(* The wire workloads: a server in this process, one client domain. *)

type wire_env = { wsvc : Svc.t; server : Server.t }

let wire_setup () =
  let wsvc = Svc.create (topology ()) in
  { wsvc; server = Server.start wsvc }

let wire_finish ?(bias = 0) env tl =
  check tl (service_value env.wsvc = net tl + bias);
  strict tl (fun () -> Server.stop ~policy:V.Strict env.server)

(* Runs [f] on a client domain of its own, so that the server's threads
   keep this domain. *)
let on_client_domain f = Domain.join (Domain.spawn f)

(* Read and write syscalls of the calling thread so far. *)
let syscalls () =
  let count key =
    match find_line (String.starts_with ~prefix:key) "/proc/thread-self/io" with
    | Some l -> Scanf.sscanf l "%_s %d" Fun.id
    | None -> 0
  in
  let r = count "syscr:" in
  (r, count "syscw:")

let rtt_request c st tl ~rtt pos () =
  let i = !pos in
  let a = Clock.now_ns () in
  let op = st.kinds.(i) in
  (if op = op_inc then
     match Client.increment c with
     | Ok _ -> tl.incs <- tl.incs + 1
     | Error _ -> tl.failed <- tl.failed + 1
   else if op = op_dec then
     match Client.decrement c with
     | Ok _ -> tl.decs <- tl.decs + 1
     | Error _ -> tl.failed <- tl.failed + 1
   else if Client.read c <> net tl then tl.failed <- tl.failed + 1);
  add rtt (Clock.now_ns () - a);
  tl.ops <- tl.ops + 1;
  pos := (i + 1) land mask

(* A plain TCP peer: default socket options, one write per batch. *)
type pipe = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  buf : Bytes.t;
  out : Buffer.t;
  mutable reads : int;
}

let pipe_connect server =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  {
    fd;
    dec = Frame.decoder ();
    buf = Bytes.create 4096;
    out = Buffer.create 1024;
    reads = 0;
  }

let request_of op =
  if op = op_inc then Frame.Inc else if op = op_dec then Frame.Dec else Frame.Read

let rec next_reply p =
  match Frame.next p.dec with
  | Frame.Frame (Frame.Response r) -> r
  | Frame.Need_more ->
      let n = Unix.read p.fd p.buf 0 (Bytes.length p.buf) in
      if n = 0 then raise Client.Disconnected;
      p.reads <- p.reads + 1;
      Frame.feed p.dec p.buf ~off:0 ~len:n;
      next_reply p
  | Frame.Frame (Frame.Request _) ->
      raise (Client.Protocol_error "request frame from the server")
  | Frame.Corrupt { detail; _ } -> raise (Client.Protocol_error detail)

let write_all fd s =
  let off = ref 0 in
  while !off < String.length s do
    off := !off + Unix.write_substring fd s !off (String.length s - !off)
  done

(* One exchange: [depth] requests in one write, then their replies, in
   order.  Each reply must be a [Value]; a read must see every earlier
   op of the batch. *)
let pipe_batch p st tl ~rtt pos () =
  let i0 = !pos in
  Buffer.clear p.out;
  for k = 0 to depth - 1 do
    Frame.encode p.out (Frame.Request (request_of st.kinds.(i0 + k)))
  done;
  let a = Clock.now_ns () in
  write_all p.fd (Buffer.contents p.out);
  for k = 0 to depth - 1 do
    let r = next_reply p in
    add rtt (Clock.now_ns () - a);
    let op = st.kinds.(i0 + k) in
    match r with
    | Frame.Value v ->
        if op = op_inc then tl.incs <- tl.incs + 1
        else if op = op_dec then tl.decs <- tl.decs + 1
        else if v <> net tl then tl.failed <- tl.failed + 1
    | _ -> tl.failed <- tl.failed + 1
  done;
  tl.ops <- tl.ops + depth;
  pos := (i0 + depth) land mask

(* After the last exchange: a final read gets exactly one reply, and no
   stray frame follows it. *)
let pipe_close p tl =
  write_all p.fd (Frame.to_string (Frame.Request Frame.Read));
  (match next_reply p with
  | Frame.Value v -> check tl (v = net tl)
  | _ -> check tl false);
  let stray =
    Frame.buffered p.dec > 0
    ||
    match Unix.select [ p.fd ] [] [] 0.05 with
    | [], _, _ -> false
    | _ -> Unix.read p.fd p.buf 0 (Bytes.length p.buf) > 0
  in
  check tl (not stray);
  Unix.close p.fd

(* ------------------------------------------------------------------ *)
(* Results. *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : string list;  (** human-readable lines printed before the JSON *)
}

let attempted (tl : tally) = tl.ops + tl.checks
let failures (tl : tally) = tl.failed + tl.bad_checks

let result_of tl metrics notes =
  {
    correct = failures tl = 0;
    attempted = attempted tl;
    failed = failures tl;
    metrics;
    notes;
  }

let ok_ratio tl =
  float_of_int (attempted tl - failures tl) /. float_of_int (max 1 (attempted tl))

let peak_rss_mb () =
  match find_line (String.starts_with ~prefix:"VmHWM:") "/proc/self/status" with
  | Some l -> Scanf.sscanf l "VmHWM: %d" (fun kb -> float_of_int kb /. 1024.)
  | None -> nan

let json_of r =
  let metric (name, v, unit_) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

(* ------------------------------------------------------------------ *)
(* A workload, as the end-to-end run and the ladder drive it. *)

type loop = {
  unit : unit -> unit;  (** one closed-loop exchange, latency into [rtt] *)
  finish : unit -> unit;  (** gate checks and the Strict teardown *)
  services : Svc.t list;  (** the combining services behind the loop *)
}

(* [prepare w seed tl ~rtt] draws [w]'s op stream, then returns its cold
   set-up: everything before the first op.  [spans] splits fabric-solo's
   groups into write and read spans. *)
let prepare ?bias ?spans w seed tl ~rtt =
  let pos = ref 0 in
  match w with
  | Fabric_solo ->
      let st = solo_stream seed in
      let writes = Option.map fst spans and reads = Option.map snd spans in
      fun () ->
        let env = fabric_setup () in
        {
          unit = fabric_group env st tl ~rtt ~writes ~reads pos;
          finish = (fun () -> fabric_finish ?bias env tl);
          services =
            List.init (Fab.shard_count env.fab) (Fab.shard_service env.fab);
        }
  | Service_combine ->
      let st = combine_stream seed in
      fun () ->
        let env = combine_setup () in
        {
          unit = combine_round env st tl ~rtt pos;
          finish = (fun () -> service_finish ?bias env.svc tl);
          services = [ env.svc ];
        }
  | Wire_rtt ->
      let st = wire_stream seed in
      fun () ->
        let env = wire_setup () in
        let c = Client.connect ~port:(Server.port env.server) () in
        {
          unit = rtt_request c st tl ~rtt pos;
          finish =
            (fun () ->
              check tl (Client.read c = net tl);
              Client.close c;
              wire_finish ?bias env tl);
          services = [ env.wsvc ];
        }
  | Wire_pipelined ->
      let st = wire_stream seed in
      fun () ->
        let env = wire_setup () in
        let p = pipe_connect env.server in
        {
          unit = pipe_batch p st tl ~rtt pos;
          finish =
            (fun () ->
              pipe_close p tl;
              wire_finish ?bias env tl);
          services = [ env.wsvc ];
        }

let is_wire = function Wire_rtt | Wire_pipelined -> true | _ -> false

(* A measured run is cut into windows of about [window_s]; the
   end-to-end figures are medians over the windows, which keeps a burst
   of host interference from moving them. *)
let window_s = 0.5
let window_capacity = 8192

type run = {
  ns : int;
  done_ops : int;
  windows : (float * float * float) array;
      (** per window: ops/s, and p50 and p99 of the round trip in ns *)
  sys_reads : int;
  sys_writes : int;
  words : float;  (** minor-heap words allocated by the driving domain *)
  minor_gcs : int;
  major_gcs : int;
}

(* Runs [lp] for [seconds], on a client domain of its own for the wire
   workloads, and measures the run from the driving thread.  Each window
   records its round trips into a reservoir of its own, swapped into
   [rtt]; all are allocated before the run. *)
let drive w seconds lp tl rtt =
  let n = max 1 (int_of_float (Float.ceil (seconds /. window_s))) in
  let lats =
    Array.init n (fun _ -> Reservoir.create ~capacity:window_capacity ())
  in
  let ops = Array.make n 0 and ns = Array.make n 0 in
  let go () =
    let c0, _ = syscalls () in
    let r0, w0 = syscalls () in
    let g0 = Gc.quick_stat () in
    for k = 0 to n - 1 do
      rtt.lat <- lats.(k);
      let o = tl.ops in
      ns.(k) <- timed (seconds /. float_of_int n) lp.unit;
      ops.(k) <- tl.ops - o
    done;
    let g1 = Gc.quick_stat () in
    let r1, w1 = syscalls () in
    let window k =
      match Metrics.reservoir_summary [ lats.(k) ] with
      | Some l -> (float_of_int ops.(k) *. 1e9 /. float_of_int ns.(k), l.p50, l.p99)
      | None -> (0., nan, nan)
    in
    {
      ns = Array.fold_left ( + ) 0 ns;
      done_ops = Array.fold_left ( + ) 0 ops;
      windows = Array.init n window;
      (* less the reads one [syscalls] call makes *)
      sys_reads = r1 - r0 - (r0 - c0);
      sys_writes = w1 - w0;
      words = g1.minor_words -. g0.minor_words;
      minor_gcs = g1.minor_collections - g0.minor_collections;
      major_gcs = g1.major_collections - g0.major_collections;
    }
  in
  if is_wire w then on_client_domain go else go ()

(* Times [setup_reps] cold set-ups; all but the last are torn down
   through their gate.  Returns the median seconds and the last set-up. *)
let cold_setups make =
  let rec go k acc =
    let t0 = Clock.now_ns () in
    let lp = make () in
    let s = float_of_int (Clock.now_ns () - t0) /. 1e9 in
    if k = 1 then (median (s :: acc), lp)
    else begin
      lp.finish ();
      go (k - 1) (s :: acc)
    end
  in
  go setup_reps []

(* A short warm-up, then the measured run; [spans] restart after the
   warm-up. *)
let measure w seconds lp tl ~rtt spans =
  ignore (drive w (Float.min 0.5 (seconds /. 10.)) lp tl rtt);
  List.iter reset (rtt :: spans);
  drive w seconds lp tl rtt

let rate r = float_of_int r.done_ops *. 1e9 /. float_of_int r.ns

(* Median over the windows of one of their figures. *)
let windowed f r = median (Array.to_list (Array.map f r.windows))

let rejected services =
  List.fold_left (fun n s -> n + (Svc.stats s).total_rejected) 0 services

(* ------------------------------------------------------------------ *)
(* Metric names and units; BENCHMARK.json lists the same. *)

let end_to_end_metrics =
  [
    ("ops_per_s", "1/s");
    ("rtt_p50_us", "us");
    ("rtt_p99_us", "us");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("ok_ratio", "ratio");
  ]

let per_layer_metrics =
  [
    ("core.build_ms", "ms");
    ("lint.certify_ms", "ms");
    ("runtime.compile_ms", "ms");
    ("server.start_ms", "ms");
    ("runtime.traverse_ns", "ns");
    ("runtime.crossings_per_op", "count");
    ("runtime.minor_words_per_op", "words");
    ("service.solo_ns", "ns");
    ("service.solo_self_ns", "ns");
    ("service.window_ns_per_op", "ns");
    ("service.mean_batch", "count");
    ("service.elim_rate", "ratio");
    ("service.network_tokens_per_op", "count");
    ("service.minor_words_per_op", "words");
    ("service.rejected_ratio", "ratio");
    ("fabric.inc_ns", "ns");
    ("fabric.route_self_ns", "ns");
    ("fabric.read_p50_us", "us");
    ("fabric.read_p99_us", "us");
    ("fabric.read_share", "ratio");
    ("frame.encode_ns", "ns");
    ("frame.decode_ns", "ns");
    ("frame.bytes_per_op", "B");
    ("server.self_us", "us");
    ("client.reads_per_batch", "count");
    ("client.writes_per_op", "count");
    ("gc.minor_collections_per_mop", "count");
    ("gc.major_collections", "count");
    ("trace.overhead_pct", "%");
  ]

let with_units names values =
  List.map (fun (name, unit_) -> (name, List.assoc name values, unit_)) names

(* ------------------------------------------------------------------ *)
(* End-to-end run: tracing off. *)

let end_to_end ?bias w ~seed ~seconds =
  let tl = tally () in
  let rtt = span () in
  let setup_s, lp = cold_setups (prepare ?bias w seed tl ~rtt) in
  let r = measure w seconds lp tl ~rtt [] in
  lp.finish ();
  let values =
    [
      ("ops_per_s", windowed (fun (x, _, _) -> x) r);
      ("rtt_p50_us", windowed (fun (_, x, _) -> x) r /. 1e3);
      ("rtt_p99_us", windowed (fun (_, _, x) -> x) r /. 1e3);
      ("setup_s", setup_s);
      ("peak_rss_mb", peak_rss_mb ());
      ("ok_ratio", ok_ratio tl);
    ]
  in
  result_of tl
    (with_units end_to_end_metrics values)
    [
      Printf.sprintf
        "rtt samples %d in %d windows of %.2f s; figures are medians over \
         the windows"
        rtt.n (Array.length r.windows) (seconds /. float_of_int (Array.length r.windows));
    ]

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer ladder.  Every layer is driven with the
   workload seed's op streams; a layer's self time is its cost per op
   minus that of the layer below it. *)

let time_ms f =
  median
    (List.init setup_reps (fun _ ->
         let t0 = Clock.now_ns () in
         ignore (Sys.opaque_identity (f ()));
         ms_since t0))

(* Runs [ladder_ops] ops of [st] per span through [op], for [seconds]. *)
let op_blocks seconds st op =
  let sp = span () and pos = ref 0 in
  ignore
    (timed seconds (fun () ->
         let a = Clock.now_ns () in
         let p = !pos in
         for k = 0 to ladder_ops - 1 do
           let i = (p + k) land mask in
           op st.kinds.(i) st.who.(i)
         done;
         add sp (Clock.now_ns () - a);
         pos := (p + ladder_ops) land mask));
  sp

let per sp ops_per_span =
  float_of_int sp.total /. float_of_int (max 1 (sp.n * ops_per_span))

let minor_words () = (Gc.quick_stat ()).minor_words

let ratio a b = float_of_int a /. float_of_int (max 1 b)

let merge tls =
  let acc = tally () in
  List.iter
    (fun t ->
      acc.ops <- acc.ops + t.ops;
      acc.failed <- acc.failed + t.failed;
      acc.checks <- acc.checks + t.checks;
      acc.bad_checks <- acc.bad_checks + t.bad_checks)
    tls;
  acc

let walk tl rt op wire =
  tl.ops <- tl.ops + 1;
  if op = op_dec then begin
    ignore (RT.traverse_decrement rt ~wire : int);
    tl.decs <- tl.decs + 1
  end
  else begin
    ignore (RT.traverse rt ~wire : int);
    tl.incs <- tl.incs + 1
  end

let solo_op ss tl op s =
  tl.ops <- tl.ops + 1;
  let r = if op = op_dec then Svc.decrement ss.(s) else Svc.increment ss.(s) in
  match r with
  | Ok _ -> if op = op_dec then tl.decs <- tl.decs + 1 else tl.incs <- tl.incs + 1
  | Error _ -> tl.failed <- tl.failed + 1

(* Per request: one request frame and one [Value] reply, encoded into
   [out]. *)
let encode_block out st p =
  Buffer.clear out;
  for k = 0 to ladder_ops - 1 do
    let i = (p + k) land mask in
    Frame.encode out (Frame.Request (request_of st.kinds.(i)));
    Frame.encode out (Frame.Response (Frame.Value i))
  done

(* Frame encode and decode, in memory: ns per frame, bytes per op. *)
let frame_costs (tl : tally) seconds st =
  let out = Buffer.create 8192 and enc = span () and pos = ref 0 in
  ignore
    (timed (seconds /. 2.) (fun () ->
         let a = Clock.now_ns () in
         encode_block out st !pos;
         add enc (Clock.now_ns () - a);
         pos := (!pos + ladder_ops) land mask));
  let blob = Buffer.to_bytes out in
  let d = Frame.decoder () and dec = span () and frames = ref 0 in
  let rec drain () =
    match Frame.next d with
    | Frame.Frame _ ->
        incr frames;
        drain ()
    | Frame.Need_more -> ()
    | Frame.Corrupt _ -> tl.failed <- tl.failed + 1
  in
  ignore
    (timed (seconds /. 2.) (fun () ->
         let a = Clock.now_ns () in
         let off = ref 0 in
         while !off < Bytes.length blob do
           let len = min 4096 (Bytes.length blob - !off) in
           Frame.feed d blob ~off:!off ~len;
           off := !off + len;
           drain ()
         done;
         add dec (Clock.now_ns () - a)));
  check tl (!frames = dec.n * 2 * ladder_ops);
  ( per enc (2 * ladder_ops),
    float_of_int dec.total /. float_of_int (max 1 !frames),
    float_of_int (Bytes.length blob) /. float_of_int ladder_ops )

type stage = {
  s_tl : tally;
  s_rtt : span;
  s_writes : span;
  s_reads : span;
  s_run : run;
  s_stats : Svc.stats list;
}

(* One workload's loop, traced: fabric-solo's groups split into write
   and read spans. *)
let stage ?bias w ~seed seconds =
  let s_tl = tally () and s_rtt = span () in
  let s_writes = span () and s_reads = span () in
  let lp = prepare ?bias ~spans:(s_writes, s_reads) w seed s_tl ~rtt:s_rtt () in
  let s_run = measure w seconds lp s_tl ~rtt:s_rtt [ s_writes; s_reads ] in
  let s_stats = List.map Svc.stats lp.services in
  lp.finish ();
  { s_tl; s_rtt; s_writes; s_reads; s_run; s_stats }

let ladder ?bias w ~seed ~seconds =
  let share f = seconds *. f in
  let topo = topology () in
  let tl = tally () in
  (* Set-up layers. *)
  let build_ms = time_ms topology in
  let certify_ms = time_ms (fun () -> Fab.certificate topo) in
  let compile_ms = time_ms (fun () -> RT.compile topo) in
  let start_ms =
    median
      (List.init setup_reps (fun _ ->
           let svc = Svc.create topo in
           let t0 = Clock.now_ns () in
           let server = Server.start svc in
           let ms = ms_since t0 in
           strict tl (fun () -> Server.stop ~policy:V.Strict server);
           ms))
  in
  (* The workload itself, untraced, for the tracing overhead and GC. *)
  let untraced_tl = tally () in
  let rtt = span () in
  let lp = prepare ?bias w seed untraced_tl ~rtt () in
  let untraced = measure w (share 0.2) lp untraced_tl ~rtt [] in
  lp.finish ();
  (* Every workload traced; this one for as long as the untraced run. *)
  let stages =
    List.map
      (fun (_, x) -> (x, stage ?bias x ~seed (share (if x = w then 0.2 else 0.1))))
      workloads
  in
  let st_of x = List.assoc x stages in
  let traced = st_of w in
  (* Runtime walk, over fabric-solo's op stream (session = input wire). *)
  let st = solo_stream seed in
  let rt = RT.compile topo and rt_tl = tally () in
  let w0 = minor_words () in
  let trav = op_blocks (share 0.08) st (walk rt_tl rt) in
  let rt_words = ((minor_words () -. w0) /. float_of_int (max 1 rt_tl.ops)) in
  check rt_tl (runtime_value rt = net rt_tl);
  check rt_tl (V.passed (V.quiescent_runtime rt));
  let metered = RT.compile ~metrics:true topo and m_tl = tally () in
  Array.iteri (fun i op -> walk m_tl metered op st.who.(i)) st.kinds;
  let crossings =
    match RT.metrics metered with
    | Some m -> Array.fold_left ( + ) 0 (Metrics.snapshot m).crossings
    | None -> 0
  in
  (* Service solo path: blocking ops, one session per input wire. *)
  let svc = Svc.create topo in
  let ss = Array.init sessions (fun wire -> Svc.session ~wire svc) in
  let solo_tl = tally () in
  let solo = op_blocks (share 0.08) st (solo_op ss solo_tl) in
  let solo_stats = Svc.stats svc in
  service_finish svc solo_tl;
  (* Network tokens per combined op, from the network's own counters. *)
  let msvc = Svc.create ~metrics:true topo in
  let menv = combine_env msvc and mc_tl = tally () and pos = ref 0 in
  let cst = combine_stream seed and scratch = span () in
  for _ = 1 to stream_len / sessions do
    combine_round menv cst mc_tl ~rtt:scratch pos ()
  done;
  let tokens =
    match RT.metrics (Svc.runtime msvc) with
    | Some m ->
        let s = Metrics.snapshot m in
        s.tokens + s.antitokens
    | None -> 0
  in
  service_finish msvc mc_tl;
  (* Frames, in memory, over the wire workloads' op stream. *)
  let frame_tl = tally () in
  let encode_ns, decode_ns, bytes_per_op =
    frame_costs frame_tl (share 0.06) (wire_stream seed)
  in
  let traverse_ns = per trav ladder_ops in
  let solo_ns = per solo ladder_ops in
  let combine = st_of Service_combine and fabric = st_of Fabric_solo in
  let wire_rtt = st_of Wire_rtt and pipelined = st_of Wire_pipelined in
  let sum f = List.fold_left (fun n s -> n + f s) 0 in
  let cstats = combine.s_stats in
  let fabric_inc_ns = per fabric.s_writes group in
  let read_p50, read_p99 = percentiles fabric.s_reads in
  let rtt_p50 = windowed (fun (_, x, _) -> x) wire_rtt.s_run in
  let all_tallies =
    [ tl; untraced_tl; rt_tl; m_tl; solo_tl; mc_tl; frame_tl ]
    @ List.map (fun (_, s) -> s.s_tl) stages
  in
  let all_stats = solo_stats :: List.concat_map (fun (_, s) -> s.s_stats) stages in
  let u_rate = rate untraced and t_rate = rate traced.s_run in
  let overhead_pct = (u_rate -. t_rate) /. u_rate *. 100. in
  let all = merge all_tallies in
  let values =
    [
      ("core.build_ms", build_ms);
      ("lint.certify_ms", certify_ms);
      ("runtime.compile_ms", compile_ms);
      ("server.start_ms", start_ms);
      ("runtime.traverse_ns", traverse_ns);
      ("runtime.crossings_per_op", ratio crossings stream_len);
      ("runtime.minor_words_per_op", rt_words);
      ("service.solo_ns", solo_ns);
      ("service.solo_self_ns", solo_ns -. traverse_ns);
      ("service.window_ns_per_op", per combine.s_rtt sessions);
      ( "service.mean_batch",
        ratio
          (sum (fun (s : Svc.stats) -> s.total_ops) cstats)
          (sum (fun (s : Svc.stats) -> s.total_batches) cstats) );
      ( "service.elim_rate",
        ratio
          (2 * sum (fun (s : Svc.stats) -> s.total_eliminated_pairs) cstats)
          (sum (fun (s : Svc.stats) -> s.total_ops) cstats) );
      ("service.network_tokens_per_op", ratio tokens mc_tl.ops);
      ("service.minor_words_per_op", combine.s_run.words /. float_of_int (max 1 combine.s_run.done_ops));
      ( "service.rejected_ratio",
        ratio (sum (fun (s : Svc.stats) -> s.total_rejected) all_stats) all.ops );
      ("fabric.inc_ns", fabric_inc_ns);
      ("fabric.route_self_ns", fabric_inc_ns -. solo_ns);
      ("fabric.read_p50_us", read_p50 /. 1e3);
      ("fabric.read_p99_us", read_p99 /. 1e3);
      ( "fabric.read_share",
        ratio fabric.s_reads.total (fabric.s_reads.total + fabric.s_writes.total) );
      ("frame.encode_ns", encode_ns);
      ("frame.decode_ns", decode_ns);
      ("frame.bytes_per_op", bytes_per_op);
      ( "server.self_us",
        (rtt_p50 -. solo_ns -. (2. *. (encode_ns +. decode_ns))) /. 1e3 );
      ( "client.reads_per_batch",
        ratio pipelined.s_run.sys_reads (pipelined.s_run.done_ops / depth) );
      ("client.writes_per_op", ratio wire_rtt.s_run.sys_writes wire_rtt.s_run.done_ops);
      ( "gc.minor_collections_per_mop",
        float_of_int untraced.minor_gcs *. 1e6 /. float_of_int (max 1 untraced.done_ops) );
      ("gc.major_collections", float_of_int untraced.major_gcs);
      ("trace.overhead_pct", overhead_pct);
    ]
  in
  let notes =
    Printf.sprintf "trace overhead: untraced %.0f ops/s, traced %.0f ops/s (%.2f%%)"
      u_rate t_rate overhead_pct
    :: List.map
         (fun (name, x) ->
           let s = List.assoc x stages in
           Printf.sprintf "ladder %s: %d ops, %d rtt samples" name s.s_run.done_ops
             s.s_rtt.n)
         workloads
  in
  result_of all (with_units per_layer_metrics values) notes

let run ?bias w ~seed ~seconds ~trace =
  if trace then ladder ?bias w ~seed ~seconds
  else end_to_end ?bias w ~seed ~seconds

(* ------------------------------------------------------------------ *)
(* Host description for the output header. *)

let cpu_model () =
  match find_line (String.starts_with ~prefix:"model name") "/proc/cpuinfo" with
  | Some l -> String.trim (List.nth (String.split_on_char ':' l) 1)
  | None -> "unknown"

(* The commit checked out in the current directory, read from .git
   without running git; "unknown" outside a git checkout. *)
let git_commit () =
  let first file = Option.map String.trim (find_line (fun _ -> true) file) in
  let commit =
    match first ".git/HEAD" with
    | Some head when String.starts_with ~prefix:"ref: " head -> (
        let r = String.sub head 5 (String.length head - 5) in
        match first (Filename.concat ".git" r) with
        | Some c -> Some c
        | None ->
            Option.map
              (fun l -> List.hd (String.split_on_char ' ' l))
              (find_line (String.ends_with ~suffix:(" " ^ r)) ".git/packed-refs"))
    | head -> head
  in
  Option.value commit ~default:"unknown"

let header () =
  Printf.sprintf "host: nproc %d, cpu %s, ocaml %s, commit %s"
    (Domain.recommended_domain_count ())
    (cpu_model ()) Sys.ocaml_version (git_commit ())
