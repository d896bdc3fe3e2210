(** The checked scenarios: the {e real} service protocol
    ({!Cn_service.Service_core.Make} — the same functor body production
    runs) over the {e real} network runtime
    ({!Cn_runtime.Network_runtime.Make}), both instantiated with
    {!Instrumented} atomics, driven by 2–4 model domains through tiny
    C(2,2) / C(4,4) networks.

    Every scenario's oracle checks, on the final state:

    - {b stopped is terminal}: once any [shutdown] has returned, the
      service is [`Stopped] — no racing [drain] resurrected it;
    - {b frozen after stop}: a stopped service's exit distribution is
      exactly what its last quiescent validation saw — no operation
      traversed the network past the validation point;
    - {b validations are quiescent}: every report a [drain]/[shutdown]
      produced passed its step-property and conservation checks;
    - {b conservation}: tokens handed out equal successful increments
      minus successful decrements (Theorem 4.2's quiescent step property
      plus value conservation);
    - {b step property} on the final distribution;
    - {b liveness} (via the engine): every accepted operation's wait
      completes — a cell parked forever or an [await] that never
      returns shows up as a deadlock.

    The modules below are exposed so tests can build bespoke scenarios
    against the instrumented instantiation. *)

module Net : Cn_runtime.Network_runtime.S
(** The shipped runtime over {!Instrumented} atomics.  Outside an engine
    execution its atoms are plain cells, so it also runs as an ordinary
    sequential runtime. *)

(** {!Net} plus what the oracles read: the tokens and antitokens counted
    when a traversal {e starts}, and the log of quiescent validations. *)
module Rt : sig
  include Cn_service.Service_core.RUNTIME with type buffer = Cn_runtime.Network_runtime.buffer

  val compile : ?mode:Cn_runtime.Network_runtime.mode -> Cn_network.Topology.t -> t
  val net : t -> Net.t

  val exit_distribution : t -> int array
  (** Tokens handed out per output wire.  Reads are silent outside an
      engine execution, so oracles can call this on the final state. *)

  val validations : t -> (int array * bool) list
  (** Every {!quiescent} call, oldest first: the distribution it
      observed and whether its step-property and conservation checks
      passed. *)

  val last_validation : t -> (int array * bool) option
end

module Svc : Cn_service.Service_core.S with type rt = Rt.t

val drain_vs_shutdown : unit -> Engine.scenario
(** One worker incrementing while a [drain] and a [shutdown] race on a
    C(2,2) service — the lifecycle-race scenario. *)

val late_admission : unit -> Engine.scenario
(** Two workers contending for one lane's combiner flag (forcing the
    park/publish path) while a [shutdown] races the admission check —
    the admission-hole scenario.  Elimination off, so successful
    increment values must also be distinct. *)

val mixed_ops_drain : unit -> Engine.scenario
(** Increments and decrements (elimination on) racing a mid-flight
    [drain] that re-opens the service. *)

val submit_await_shutdown : unit -> Engine.scenario
(** The asynchronous [submit]/[await] path racing a [shutdown]. *)

val c44_shutdown : unit -> Engine.scenario
(** Three workers on distinct wires of a C(4,4) network racing a
    [shutdown] — wider network, checks the oracles beyond one lane. *)

val cas_drain : ?observe:(Rt.t -> unit) -> unit -> Engine.scenario
(** Two incrementers on the two wires of a C(2,2) service compiled in
    [Cas] mode, racing a [drain]: both tokens contend for the one
    balancer, so the explorer drives the runtime's CAS retry loop.
    [observe] sees the runtime before the oracle runs. *)

val pipelined_drain : unit -> Engine.scenario
(** One model domain submitting two increments (two sessions, then two
    awaits) and one decrementing, all on one lane of a [~pipeline:true]
    service with elimination off, racing a [drain]: combined runs walk
    the pipelined wavefront, two tokens abreast when a combiner takes
    both increments. *)

val all : (string * (unit -> Engine.scenario)) list
(** Every scenario above, keyed by name, in a stable order. *)
