(** Single-flight cache bounded by weight, least recently used out
    first.  The daemon keeps two: results keyed by {!Api.digest} (each
    weighs 1, so the bound is an entry count) and compiled
    {!Sim.Engine.image}s keyed by {!Api.circuit_digest} (each weighs
    {!Sim.Engine.image_bytes}: images vary by orders of magnitude).

    When several callers want the same key together, exactly one leads
    (computes the value); the rest join and poll {!peek} under their
    own deadlines (stdlib [Condition] has no timed wait).  A leader
    whose outcome is transient — worker lost, timeout, a failed compile
    — {e abandons} the entry instead of filling it: joiners observe
    [`Absent] and re-admit, so a crash poisons nobody else's entry and
    the next request simply retries.

    Eviction drops the least recently used completed entries until the
    resident weight fits the bound.  {!admit} hits and {!lookup} hits
    count as uses; {!peek} does not.  Pending entries and the key just
    filled are never evicted (so one value heavier than the whole bound
    still lands).  Thread-safe. *)

type 'a t

(** @raise Invalid_argument if [max_weight < 1]. *)
val create : max_weight:int -> weight:('a -> int) -> 'a t

type 'a admission =
  | Hit of 'a  (** cached value, returned immediately *)
  | Lead       (** this caller computes the value and must {!fulfill}
                   or {!abandon} *)
  | Join       (** another caller is leading; poll {!peek} *)

val admit : 'a t -> string -> 'a admission

(** {!admit} for a filler, not a user: [true] if the key was absent
    and this caller now leads it (it must {!fulfill} or {!abandon}),
    [false] if a value is ready or another caller leads.  Counts
    nothing: the daemon's image cache counts each request once, at its
    routing {!lookup}, and filling the cache afterwards is not a use. *)
val claim : 'a t -> string -> bool

(** Counting, non-leading probe — the batch tier's routing check.  A
    ready value counts a hit; otherwise (absent, or still being
    computed) a miss, and, unlike {!admit}, no Pending entry is planted:
    routing a request must not make the next request believe a compile
    is in flight. *)
val lookup : 'a t -> string -> 'a option

(** Store the leader's value and wake joiners; evicts past the bound. *)
val fulfill : 'a t -> string -> 'a -> unit

(** Drop the pending entry (transient outcome): joiners see [`Absent]
    and re-admit. *)
val abandon : 'a t -> string -> unit

(** Non-counting probe; not a use. *)
val peek : 'a t -> string -> [ `Ready of 'a | `Pending | `Absent ]

type counters = {
  hits : int;
  misses : int;     (** admits and lookups that found no ready value *)
  joins : int;
  evictions : int;
  entries : int;    (** resident entries, Pending included *)
  weight : int;     (** resident weight of the ready entries; within the
                        bound after every fulfill unless one value
                        outweighs it alone *)
}

val stats : 'a t -> counters
