"""Sequential domains: a generic finite MDP container, the noisy Bitflip
shift register, and an object-oriented Taxi gridworld whose actions carry
conjunctive preconditions over grounded predicates."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .concepts import DbnConcept, MonotoneConjunction, bitflip_shift_concept

State = Hashable
Action = Hashable


class TruncationError(RuntimeError):
    """Reachability enumeration hit the configured state cap."""


@dataclass(frozen=True)
class SequenceStep:
    """One step of a teaching sequence. ``observation`` carries the
    environment's success/failure label where it has one (Taxi), else
    None."""

    state: State
    action: Action
    reward: float
    observation: object
    next_state: State


class TeachingSequence:
    """Ordered trace of (state, action, reward) steps starting at the
    environment's start state. Unlike a teaching collection, the order is
    visible to sequential learners.

    A sequence is recorded compactly, as the ids of the states it left
    and the actions it took: it left ``states[state_ids[t]]`` by
    ``actions[action_ids[t]]`` at each step t and ended in
    ``final_state``. Its ``steps``, with rewards and observations read
    from ``env``, are materialised once, on first access; its length
    never needs them."""

    def __init__(self, env, states: Sequence[State], actions: Sequence[Action],
                 state_ids: Sequence[int], action_ids: Sequence[int], final_state: State):
        self._steps: tuple[SequenceStep, ...] | None = None
        self._record = (env, states, actions, state_ids, action_ids)
        self._length = len(state_ids)
        self.final_state = final_state

    @property
    def steps(self) -> tuple[SequenceStep, ...]:
        if self._steps is None:
            env, states, actions, state_ids, action_ids = self._record
            path = [states[i] for i in state_ids]
            path.append(self.final_state)
            observe = getattr(env, "observation", None)
            self._steps = tuple(
                SequenceStep(s, a, env.reward(s, a),
                             observe(s, a) if observe is not None else None, nxt)
                for s, a, nxt in zip(path, [actions[k] for k in action_ids], path[1:]))
            self._record = None
        return self._steps

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other) -> bool:
        if not isinstance(other, TeachingSequence):
            return NotImplemented
        return (len(self) == len(other) and self.final_state == other.final_state
                and self.steps == other.steps)

    def __hash__(self) -> int:
        return hash((self.steps, self.final_state))

    def __repr__(self) -> str:
        return f"TeachingSequence(steps={self.steps!r}, final_state={self.final_state!r})"


def reachable_closure(env, max_states: int = 200_000) -> list[tuple[State, tuple, list]]:
    """Breadth-first walk of the states reachable from the start state,
    reading each (state, action) transition once (the environments keep
    no memo, so callers keep what they read again): one (state, actions,
    transitions) entry per state, the start first, in the order reached,
    with ``env.actions(state)`` and each action's distribution. A state's
    next states are reached in sorted order. Raises
    :class:`TruncationError` past ``max_states``.
    """
    start = env.start_state
    seen = {start}
    walk: list[tuple[State, tuple, list]] = []
    queue = [start]
    for s in queue:
        actions = env.actions(s)
        dists = [env.transition(s, a) for a in actions]
        walk.append((s, actions, dists))
        for dist in dists:
            for s2 in sorted(dist):
                if s2 not in seen:
                    seen.add(s2)
                    if len(seen) > max_states:
                        raise TruncationError(
                            f"reachable state count exceeded {max_states}")
                    queue.append(s2)
    return walk


class Mdp:
    """Explicit-table finite MDP: transition rows are dictionaries over
    next states and must be valid distributions."""

    def __init__(self, transitions: Mapping[tuple[State, Action], Mapping[State, float]],
                 rewards: Mapping[tuple[State, Action], float] | None,
                 start_state: State):
        self._transitions = {k: dict(v) for k, v in transitions.items()}
        for (s, a), row in self._transitions.items():
            total = sum(row.values())
            if abs(total - 1.0) > 1e-9 or any(p < 0 for p in row.values()):
                raise ValueError(f"transition row for {(s, a)!r} is not a distribution")
        self._rewards = dict(rewards) if rewards else {}
        self.start_state = start_state
        self._actions: dict[State, list[Action]] = {}
        for s, a in self._transitions:
            self._actions.setdefault(s, []).append(a)

    def actions(self, state: State) -> tuple[Action, ...]:
        return tuple(self._actions.get(state, ()))

    def transition(self, state: State, action: Action) -> dict[State, float]:
        return self._transitions[(state, action)]

    def reward(self, state: State, action: Action) -> float:
        return self._rewards.get((state, action), 0.0)


# ---------------------------------------------------------------------------
# Bitflip


class BitflipEnv:
    """n-bit register with two actions: ``flip0`` deterministically
    toggles bit 0, and ``shift`` moves every bit's value up one position.
    The shift into bit i succeeds with probability ``shift_success[i]``
    (bit 0 receives a constant 0); on failure the bit keeps its current
    value."""

    ACTIONS = ("flip0", "shift")

    def __init__(self, n: int, shift_success: Sequence[float]):
        if n < 1:
            raise ValueError("need at least one bit")
        p = tuple(float(v) for v in shift_success)
        if len(p) != n or any(not (0.0 <= v <= 1.0) for v in p):
            raise ValueError("shift_success must give one probability in [0,1] per bit")
        self.n = n
        self.shift_success = p
        self.start_state: tuple[int, ...] = (0,) * n

    def actions(self, state) -> tuple[str, ...]:
        return self.ACTIONS

    def reward(self, state, action) -> float:
        return 0.0

    def shift_concept(self) -> DbnConcept:
        return bitflip_shift_concept(self.n, self.shift_success)

    def transition(self, state: tuple[int, ...], action: str) -> dict[tuple[int, ...], float]:
        if len(state) != self.n:
            raise ValueError(f"state must have {self.n} bits")
        if action == "flip0":
            nxt = (1 - state[0],) + state[1:]
            return {nxt: 1.0}
        if action != "shift":
            raise ValueError(f"unknown action {action!r}")
        # bits whose incoming value equals the kept value, or whose success
        # probability is 0 or 1, do not branch; the next states are the
        # product of the branching bits' outcomes, the incoming value first,
        # and each one's probability the product of its outcomes' in bit
        # order (the non-branching bits' factors of 1.0 change nothing)
        nxt = list(state)
        branching = []
        for i, p in enumerate(self.shift_success):
            incoming = state[i - 1] if i else 0
            if incoming != state[i] and p != 0.0:
                if p == 1.0:
                    nxt[i] = incoming
                else:
                    branching.append((i, ((incoming, p), (state[i], 1.0 - p))))
        dist: dict[tuple[int, ...], float] = {}
        for combo in itertools.product(*(outcomes for _, outcomes in branching)):
            prob = 1.0
            for (i, _), (value, q) in zip(branching, combo):
                nxt[i] = value
                prob *= q
            dist[tuple(nxt)] = prob
        return dist


# ---------------------------------------------------------------------------
# Taxi


@dataclass(frozen=True)
class ActionSchema:
    """A parameterised action: name, argument count, the fixed predicate
    vocabulary evaluated per grounding, and the indices of the vocabulary
    entries that form the true precondition conjunction."""

    name: str
    arity: int
    vocabulary: tuple[str, ...]
    relevant: frozenset[int]

    def precondition(self) -> MonotoneConjunction:
        return MonotoneConjunction(len(self.vocabulary), self.relevant)


@dataclass(frozen=True)
class GroundedInstance:
    """An action schema with bound arguments and the boolean predicate
    vector that grounding evaluates to in some state."""

    schema: str
    binding: tuple[str, ...]
    vector: tuple[int, ...]


GroundedAction = tuple[str, tuple[str, ...]]

_DIRS = {"up": (0, 1), "down": (0, -1), "left": (-1, 0), "right": (1, 0)}
_DIR_LABEL = {"up": "north", "down": "south", "left": "west", "right": "east"}

_ABOUT_ARG0 = tuple(f"{kind}_{side}(a0)"
                    for kind in ("wall", "clear")
                    for side in ("north", "south", "east", "west"))


def _movement_schema(name: str) -> ActionSchema:
    relevant = frozenset({_ABOUT_ARG0.index(f"clear_{_DIR_LABEL[name]}(a0)")})
    return ActionSchema(name, 1, _ABOUT_ARG0, relevant)


# Vocabularies exclude predicates entailed by the rest of a successful
# grounding (co-location is transitive, "a0 is out of the taxi" holds in
# every pickup success), since an entailed predicate could never be
# dispelled by any reachable positive example.
_PICKUP_VOCAB = _ABOUT_ARG0 + ("on(a0,a1)", "on(a1,a2)", "in_taxi(a1)", "not_in_taxi(a1)")
_DROPOFF_VOCAB = _ABOUT_ARG0 + ("on(a0,a2)", "in_taxi(a1)", "not_in_taxi(a1)")

_DEFAULT_SCHEMAS = {
    "up": _movement_schema("up"),
    "down": _movement_schema("down"),
    "left": _movement_schema("left"),
    "right": _movement_schema("right"),
    "pickup": ActionSchema(
        "pickup", 3, _PICKUP_VOCAB,
        frozenset({_PICKUP_VOCAB.index("on(a0,a1)"),
                   _PICKUP_VOCAB.index("on(a1,a2)"),
                   _PICKUP_VOCAB.index("not_in_taxi(a1)")})),
    "dropoff": ActionSchema(
        "dropoff", 3, _DROPOFF_VOCAB,
        frozenset({_DROPOFF_VOCAB.index("on(a0,a2)"),
                   _DROPOFF_VOCAB.index("in_taxi(a1)")})),
}

IN_TAXI = "taxi"  # passenger-location marker

_GRID_SIZE = 5
_LANDMARKS = {"L0": (0, 0), "L1": (_GRID_SIZE - 1, _GRID_SIZE - 1)}
_OBJECTS = ("taxi", "passenger") + tuple(sorted(_LANDMARKS))
_GROUNDED: tuple[GroundedAction, ...] = tuple(
    [(name, ("taxi",)) for name in ("up", "down", "left", "right")]
    + [(name, binding) for name in ("pickup", "dropoff")
       for binding in itertools.permutations(_OBJECTS, 3)])


# the (coordinate, value) of a taxi position beside each wall
_WALLS = {"north": (1, _GRID_SIZE - 1), "south": (1, 0),
          "east": (0, _GRID_SIZE - 1), "west": (0, 0)}


def _parse_predicate(pred: str) -> tuple[str, tuple[int, ...], tuple[int, int] | None]:
    """A vocabulary predicate as (kind, argument slots, wall): for example
    ``"on(a0,a2)"`` is ``("on", (0, 2), None)`` and ``"clear_north(a0)"``
    is ``("clear", (0,), (1, 4))``, true when coordinate 1 of a0's
    position is not 4."""
    name, args = pred[:-1].split("(")
    slots = tuple(int(arg[1:]) for arg in args.split(","))
    if name.startswith(("wall_", "clear_")):
        kind, side = name.split("_")
        return kind, slots, _WALLS[side]
    if name in ("on", "in_taxi", "not_in_taxi"):
        return name, slots, None
    raise ValueError(f"unknown predicate {pred!r}")


class TaxiEnv:
    """Deterministic gridworld taxi with parameterised actions.

    The state is (taxi position, passenger location), where the passenger
    is either at a named landmark or inside the taxi. Movement actions are
    bound to the taxi; pickup and dropoff take any ordered binding of
    three distinct objects, and their success is decided by evaluating the
    schema's precondition conjunction on the grounded predicate vector.
    Failed actions leave the state unchanged and observe label 0. Rewards
    are all zero: the teaching problem is the preconditions.

    The layout is fixed: a 5x5 grid with landmarks L0 at (0, 0) and L1 at
    (4, 4); the taxi starts at (2, 2) and the passenger at L0.
    ``preconditions`` replaces the relevant predicate indices of the named
    schemas; ``ValueError`` refuses an unknown schema, an index outside
    its vocabulary, and a move allowed off the grid's edge.
    """

    def __init__(self, preconditions: Mapping[str, Iterable[int]] | None = None):
        self.start_state = ((2, 2), "L0")
        schemas = dict(_DEFAULT_SCHEMAS)
        for name, relevant in (preconditions or {}).items():
            if name not in schemas:
                raise ValueError(f"unknown action schema {name!r}")
            base, relevant = schemas[name], frozenset(int(i) for i in relevant)
            if not relevant <= set(range(len(base.vocabulary))):
                raise ValueError(f"{name} has predicates 0 to {len(base.vocabulary) - 1}, "
                                 f"not {sorted(relevant)}")
            schemas[name] = ActionSchema(base.name, base.arity, base.vocabulary, relevant)
        self.schemas = schemas
        self._predicates = {name: tuple(map(_parse_predicate, schema.vocabulary))
                            for name, schema in schemas.items()}
        self._ground_cache: dict = {}
        for name, (dx, dy) in _DIRS.items():
            for x, y in itertools.product(range(_GRID_SIZE), repeat=2):
                if (not (0 <= x + dx < _GRID_SIZE and 0 <= y + dy < _GRID_SIZE)
                        and self.precondition_holds(((x, y), "L0"), name, ("taxi",))):
                    raise ValueError(f"{name} is allowed at {(x, y)}, "
                                     "where it would leave the grid")

    def actions(self, state) -> tuple[GroundedAction, ...]:
        return _GROUNDED

    def reward(self, state, action) -> float:
        return 0.0

    # -- predicate grounding

    def _position(self, obj: str, state) -> tuple[int, int]:
        (taxi_pos, passenger_loc) = state
        if obj == "taxi":
            return taxi_pos
        if obj == "passenger":
            return taxi_pos if passenger_loc == IN_TAXI else _LANDMARKS[passenger_loc]
        return _LANDMARKS[obj]

    def _in_taxi(self, obj: str, state) -> bool:
        return obj == "passenger" and state[1] == IN_TAXI

    def ground(self, state, schema_name: str,
               binding: Sequence[str]) -> GroundedInstance:
        """Evaluate the schema's predicate vocabulary under the binding."""
        binding = tuple(binding)
        cached = self._ground_cache.get((state, schema_name, binding))
        if cached is not None:
            return cached
        instance = self._ground(state, schema_name, binding)
        self._ground_cache[(state, schema_name, binding)] = instance
        return instance

    def _ground(self, state, schema_name: str,
                binding: tuple[str, ...]) -> GroundedInstance:
        schema = self.schemas[schema_name]
        if len(binding) != schema.arity:
            raise ValueError(
                f"{schema_name} takes {schema.arity} arguments, got {len(binding)}")
        for obj in binding:
            if obj not in _OBJECTS:
                raise ValueError(f"unknown object {obj!r}")
        pos = [self._position(obj, state) for obj in binding]
        vector: list[int] = []
        for kind, slots, wall in self._predicates[schema_name]:
            if kind == "on":
                vector.append(int(pos[slots[0]] == pos[slots[1]]))
            elif kind in ("in_taxi", "not_in_taxi"):
                inside = self._in_taxi(binding[slots[0]], state)
                vector.append(int(inside == (kind == "in_taxi")))
            else:
                axis, at = wall
                vector.append(int((pos[slots[0]][axis] == at) == (kind == "wall")))
        return GroundedInstance(schema_name, binding, tuple(vector))

    def precondition_holds(self, state, schema_name: str,
                           binding: Sequence[str]) -> bool:
        instance = self.ground(state, schema_name, binding)
        schema = self.schemas[schema_name]
        return all(instance.vector[i] == 1 for i in schema.relevant)

    def observation(self, state, action: GroundedAction) -> int:
        """Success/failure label of executing the grounded action."""
        name, binding = action
        return int(self.precondition_holds(state, name, binding))

    def true_preconditions(self, names: Iterable[str] | None = None
                           ) -> dict[str, MonotoneConjunction]:
        names = tuple(names) if names is not None else tuple(self.schemas)
        return {n: self.schemas[n].precondition() for n in names}

    # -- dynamics

    def transition(self, state, action: GroundedAction) -> dict:
        name, binding = action
        if not self.precondition_holds(state, name, binding):
            return {state: 1.0}
        (taxi_pos, passenger_loc) = state
        if name in _DIRS:
            dx, dy = _DIRS[name]
            nxt = ((taxi_pos[0] + dx, taxi_pos[1] + dy), passenger_loc)
            return {nxt: 1.0}
        if name == "pickup":
            if passenger_loc != IN_TAXI and _LANDMARKS[passenger_loc] == taxi_pos:
                return {(taxi_pos, IN_TAXI): 1.0}
            return {state: 1.0}
        if name == "dropoff":
            if passenger_loc == IN_TAXI:
                at = [n for n, p in _LANDMARKS.items() if p == taxi_pos]
                if at:
                    return {(taxi_pos, at[0]): 1.0}
            return {state: 1.0}
        raise ValueError(f"unknown action {action!r}")

