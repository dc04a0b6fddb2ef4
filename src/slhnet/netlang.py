"""The .qnet network-description language.

A network file declares component instances, wires outputs to inputs
(cycles are legal; that is what feedback means), optionally exposes the
surviving external ports under friendly names, and assigns initial
states::

    # two cavities in cascade
    component c1 = one_sided_cavity(gamma=2.0, delta=0.5);
    component c2 = one_sided_cavity(gamma=3.0, delta=-0.7);
    wire c1.out[1] -> c2.in[1];
    expose c1.in[1] as drive;
    expose c2.out[1] as through;
    state c1 = coherent(0.4);

Statements are semicolon-terminated and newline-insensitive; comments
run from '#' to end of line.  Ports are 1-based.  Elaboration forms the
concatenation of all instances in declaration order and closes every
wire with one multi-port feedback reduction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
import numpy as np

from . import components as catalog
from .envelopes import (
    ConstantAmplitude,
    ExpDecayPulse,
    ExpRisingPulse,
    GaussianPulse,
    SquarePulse,
)
from .errors import AlgebraicLoopError, CompositionError, ElaborationError, ParseError, ValidationError
from .hilbert import LabeledSpace, Operator, coherent_vector, product_density
from .slh import SLHTriple, concat, feedback_multi

# --------------------------------------------------------------------------
# lexer

_PUNCT = {
    "->": "ARROW",
    "=": "EQUALS",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACK",
    "]": "RBRACK",
    ".": "DOT",
    ",": "COMMA",
    ";": "SEMI",
    "*": "STAR",
    "+": "PLUS",
    "-": "MINUS",
}

_KEYWORDS = {"component", "wire", "expose", "state", "as", "in", "out"}


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | NUMBER | IMAG | keyword | punct kind | EOF
    value: object
    line: int
    column: int


# One alternative per token class, tried in order; ERROR takes any
# character no other class starts with, so the walk covers every character.
_TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("SKIP", r"[ \t\r]+|#[^\n]*"),
    ("NEWLINE", r"\n"),
    ("NUMBER", r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?[ij]?"),
    ("WORD", r"[^\W\d]\w*"),
    ("PUNCT", "|".join(re.escape(p) for p in _PUNCT)),
    ("ERROR", "."),
)))


def tokenize(text: str) -> list[Token]:
    """Split text into tokens with 1-based line and column.  Numbers are
    ASCII digits (any other digit is a ParseError); names may use Unicode
    letters."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, raw = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind == "NUMBER":
            if raw[-1] in "ij":
                tokens.append(Token("IMAG", float(raw[:-1]), line, col))
            elif not raw.isdigit():
                tokens.append(Token("NUMBER", float(raw), line, col))
            else:
                try:
                    tokens.append(Token("NUMBER", int(raw), line, col))
                except ValueError:  # more digits than sys.get_int_max_str_digits()
                    raise ParseError("number has too many digits", line, col) from None
        elif kind == "WORD" and (raw[0].isalpha() or raw[0] == "_"):  # \w also holds '²'
            tokens.append(Token(raw if raw in _KEYWORDS else "IDENT", raw, line, col))
        elif kind == "PUNCT":
            tokens.append(Token(_PUNCT[raw], raw, line, col))
        elif kind != "SKIP":
            raise ParseError(f"unexpected character {raw[0]!r}", line, col)
    tokens.append(Token("EOF", None, line, len(text) - line_start + 1))
    return tokens


# --------------------------------------------------------------------------
# AST


@dataclass
class CallValue:
    """A constructor-style value such as gaussian(t0=5.0, sigma=1.0)."""

    name: str
    params: dict

    def __eq__(self, other):
        return isinstance(other, CallValue) and (self.name, self.params) == (other.name, other.params)


@dataclass
class ComponentDecl:
    name: str
    kind: str
    params: dict
    pos: tuple = field(compare=False, default=(0, 0))


@dataclass
class WireDecl:
    src: tuple[str, int]  # (instance, out port)
    dst: tuple[str, int]  # (instance, in port)
    pos: tuple = field(compare=False, default=(0, 0))


@dataclass
class ExposeDecl:
    instance: str
    side: str  # "in" | "out"
    index: int
    label: str
    pos: tuple = field(compare=False, default=(0, 0))


@dataclass
class StateAtom:
    kind: str  # vacuum | fock | coherent | qubit
    arg: object = None


@dataclass
class StateDecl:
    instance: str
    atoms: list
    pos: tuple = field(compare=False, default=(0, 0))


@dataclass
class NetworkDescription:
    instances: list
    wires: list
    exposes: list
    states: list

    def instance(self, name: str) -> ComponentDecl:
        for inst in self.instances:
            if inst.name == name:
                return inst
        raise KeyError(name)


# --------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        if self.peek().kind != kind:
            self.error(kind)
        return self.next()

    def error(self, expected: str):
        """Raise 'expected ..., found <next token>' at the next token."""
        tok = self.peek()
        found = "end of input" if tok.kind == "EOF" else repr(tok.value)
        raise ParseError(f"expected {expected}, found {found}", tok.line, tok.column)

    # ---- values ----

    def parse_scalar(self):
        """Signed real or complex literal: 1.5, -2, 3i, 1+2i, -1.5-0.5i."""
        sign = 1.0
        if self.peek().kind in ("PLUS", "MINUS"):
            sign = -1.0 if self.next().kind == "MINUS" else 1.0
        tok = self.peek()
        if tok.kind == "IMAG":
            self.next()
            return complex(0.0, sign * tok.value)
        if tok.kind != "NUMBER":
            self.error("a number")
        self.next()
        real = sign * tok.value
        if self.peek().kind in ("PLUS", "MINUS"):
            save = self.pos
            s2 = -1.0 if self.next().kind == "MINUS" else 1.0
            if self.peek().kind == "IMAG":
                imag = self.next().value
                return complex(real, s2 * imag)
            self.pos = save
        return real

    def parse_value(self):
        tok = self.peek()
        if tok.kind in ("NUMBER", "IMAG", "PLUS", "MINUS"):
            return self.parse_scalar()
        if tok.kind == "IDENT":
            name = self.next().value
            if self.peek().kind == "LPAREN":
                params = self.parse_param_list()
                return CallValue(name, params)
            return name
        self.error("a value")

    def parse_param_list(self) -> dict:
        self.expect("LPAREN")
        params: dict = {}
        if self.peek().kind != "RPAREN":
            while True:
                key_tok = self.peek()
                if key_tok.kind not in ("IDENT", "in", "out", "as"):
                    self.error("a parameter name")
                key = self.next().value
                if key in params:
                    raise ParseError(f"duplicate parameter {key!r}", key_tok.line, key_tok.column)
                self.expect("EQUALS")
                params[key] = self.parse_value()
                if self.peek().kind == "COMMA":
                    self.next()
                    continue
                break
        self.expect("RPAREN")
        return params

    # ---- statements ----

    def parse_port_ref(self, require_side: str | None = None) -> tuple[str, str, int]:
        inst = self.expect("IDENT").value
        self.expect("DOT")
        side_tok = self.peek()
        if side_tok.kind not in ("in", "out"):
            self.error("'in' or 'out'")
        side = self.next().value
        if require_side and side != require_side:
            raise ParseError(
                f"expected a .{require_side} port here, found .{side}", side_tok.line, side_tok.column
            )
        self.expect("LBRACK")
        idx_tok = self.expect("NUMBER")
        if not isinstance(idx_tok.value, int) or idx_tok.value < 1:
            raise ParseError("port index must be a positive integer", idx_tok.line, idx_tok.column)
        self.expect("RBRACK")
        return inst, side, idx_tok.value

    def parse_state_atom(self) -> StateAtom:
        tok = self.peek()
        if tok.kind != "IDENT":
            self.error("a state constructor")
        name = self.next().value
        if name == "vacuum":
            return StateAtom("vacuum")
        if name == "fock":
            self.expect("LPAREN")
            ntok = self.expect("NUMBER")
            if not isinstance(ntok.value, int) or ntok.value < 0:
                raise ParseError("fock() takes a non-negative integer", ntok.line, ntok.column)
            self.expect("RPAREN")
            return StateAtom("fock", ntok.value)
        if name == "coherent":
            self.expect("LPAREN")
            alpha = self.parse_scalar()
            self.expect("RPAREN")
            return StateAtom("coherent", complex(alpha))
        if name == "qubit":
            self.expect("LPAREN")
            lvl = self.expect("IDENT").value
            if lvl not in ("ground", "excited"):
                raise ParseError(f"qubit() takes ground or excited, found {lvl!r}",
                                 tok.line, tok.column)
            self.expect("RPAREN")
            return StateAtom("qubit", lvl)
        raise ParseError(f"unknown state constructor {name!r}", tok.line, tok.column)

    def parse_network(self) -> NetworkDescription:
        instances: list[ComponentDecl] = []
        wires: list[WireDecl] = []
        exposes: list[ExposeDecl] = []
        states: list[StateDecl] = []
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind == "component":
                self.next()
                name_tok = self.expect("IDENT")
                self.expect("EQUALS")
                kind_tok = self.expect("IDENT")
                params = self.parse_param_list()
                self.expect("SEMI")
                instances.append(
                    ComponentDecl(name_tok.value, kind_tok.value, params,
                                  (name_tok.line, name_tok.column))
                )
            elif tok.kind == "wire":
                self.next()
                src = self.parse_port_ref(require_side="out")
                self.expect("ARROW")
                dst = self.parse_port_ref(require_side="in")
                self.expect("SEMI")
                wires.append(WireDecl((src[0], src[2]), (dst[0], dst[2]), (tok.line, tok.column)))
            elif tok.kind == "expose":
                self.next()
                inst, side, idx = self.parse_port_ref()
                self.expect("as")
                label_tok = self.peek()
                if label_tok.kind not in ("IDENT", "in", "out"):
                    self.error("a label name")
                self.next()
                self.expect("SEMI")
                exposes.append(
                    ExposeDecl(inst, side, idx, label_tok.value, (tok.line, tok.column))
                )
            elif tok.kind == "state":
                self.next()
                name_tok = self.expect("IDENT")
                self.expect("EQUALS")
                atoms = [self.parse_state_atom()]
                while self.peek().kind == "STAR":
                    self.next()
                    atoms.append(self.parse_state_atom())
                self.expect("SEMI")
                states.append(StateDecl(name_tok.value, atoms, (name_tok.line, name_tok.column)))
            else:
                self.error("a statement")
        return NetworkDescription(instances, wires, exposes, states)


def _validate(nd: NetworkDescription) -> None:
    names: dict[str, ComponentDecl] = {}
    for inst in nd.instances:
        if inst.name in names:
            raise ParseError(f"duplicate component name {inst.name!r}", *inst.pos)
        if inst.kind not in catalog.CATALOG:
            raise ParseError(f"unknown kind {inst.kind!r}", *inst.pos)
        names[inst.name] = inst

    def port_count(inst: ComponentDecl) -> int:
        return catalog.CATALOG[inst.kind][1]

    sources: set[tuple[str, int]] = set()
    sinks: set[tuple[str, int]] = set()
    for w in nd.wires:
        for (inst, idx), bucket, word in ((w.src, sources, "source"), (w.dst, sinks, "sink")):
            if inst not in names:
                raise ParseError(f"wire endpoint references unknown component {inst!r}", *w.pos)
            if not 1 <= idx <= port_count(names[inst]):
                raise ParseError(
                    f"port index {idx} out of range 1..{port_count(names[inst])} for {inst!r}",
                    *w.pos,
                )
            if (inst, idx) in bucket:
                raise ParseError(f"port {inst}.{idx} used twice as a {word}", *w.pos)
            bucket.add((inst, idx))
    seen_labels: set[str] = set()
    for e in nd.exposes:
        if e.instance not in names:
            raise ParseError(f"expose references unknown component {e.instance!r}", *e.pos)
        if not 1 <= e.index <= port_count(names[e.instance]):
            raise ParseError(f"port index {e.index} out of range for {e.instance!r}", *e.pos)
        key = (e.instance, e.index)
        if e.side == "in" and key in sinks:
            raise ParseError(f"cannot expose wired input {e.instance}.in[{e.index}]", *e.pos)
        if e.side == "out" and key in sources:
            raise ParseError(f"cannot expose wired output {e.instance}.out[{e.index}]", *e.pos)
        if e.label in seen_labels:
            raise ParseError(f"duplicate exposed label {e.label!r}", *e.pos)
        seen_labels.add(e.label)
    for s in nd.states:
        if s.instance not in names:
            raise ParseError(f"state references unknown component {s.instance!r}", *s.pos)


def parse(text: str) -> NetworkDescription:
    """Parse and validate a network description; every diagnostic
    carries a line:column position."""
    nd = _Parser(tokenize(text)).parse_network()
    _validate(nd)
    return nd


# --------------------------------------------------------------------------
# pretty printer (canonical form; parse o print is a fixpoint)


def _format_scalar(v) -> str:
    if isinstance(v, complex):
        if v.real == 0.0:
            return f"{_format_scalar(v.imag)}i"
        if v.imag == 0.0:
            return _format_scalar(v.real)
        sign = "+" if v.imag >= 0 else "-"
        return f"{_format_scalar(v.real)}{sign}{_format_scalar(abs(v.imag))}i"
    if isinstance(v, bool):
        raise ElaborationError("boolean values are not part of the surface language")
    if isinstance(v, int):
        return repr(v)
    return repr(float(v))


def _format_value(v) -> str:
    if isinstance(v, CallValue):
        inner = ", ".join(f"{k}={_format_value(x)}" for k, x in v.params.items())
        return f"{v.name}({inner})"
    if isinstance(v, str):
        return v
    return _format_scalar(v)


def print_network(nd: NetworkDescription) -> str:
    lines = []
    for inst in nd.instances:
        inner = ", ".join(f"{k}={_format_value(v)}" for k, v in inst.params.items())
        lines.append(f"component {inst.name} = {inst.kind}({inner});")
    for w in nd.wires:
        lines.append(f"wire {w.src[0]}.out[{w.src[1]}] -> {w.dst[0]}.in[{w.dst[1]}];")
    for e in nd.exposes:
        lines.append(f"expose {e.instance}.{e.side}[{e.index}] as {e.label};")
    for s in nd.states:
        atoms = []
        for a in s.atoms:
            if a.kind == "vacuum":
                atoms.append("vacuum")
            elif a.kind == "fock":
                atoms.append(f"fock({a.arg})")
            elif a.kind == "coherent":
                atoms.append(f"coherent({_format_scalar(a.arg)})")
            else:
                atoms.append(f"qubit({a.arg})")
        lines.append(f"state {s.instance} = {' * '.join(atoms)};")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# elaboration

_ENVELOPES = {
    cls.name: cls
    for cls in (GaussianPulse, SquarePulse, ExpDecayPulse, ExpRisingPulse, ConstantAmplitude)
}


def build_value(v):
    """Turn an AST value into a python argument (envelopes included)."""
    if isinstance(v, CallValue):
        ctor = _ENVELOPES.get(v.name)
        if ctor is None:
            raise ElaborationError(f"unknown constructor {v.name!r} in parameter value")
        params = {k: build_value(x) for k, x in v.params.items()}
        try:
            return ctor(**params)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad parameters for {v.name}(...): {exc}") from exc
    return v


@dataclass
class ElaborationResult:
    triple: SLHTriple  # its input_names/output_names name every surviving port
    initial_state: Operator  # density operator on the triple's space


def elaborate(nd: NetworkDescription) -> ElaborationResult:
    """Concatenate all instances in declaration order, name every port (its
    exposed label, else ``inst.in[k]`` / ``inst.out[k]``), and close every
    wire with one block feedback reduction, which keeps the names of the
    ports that survive."""
    if not nd.instances:
        raise ElaborationError("network declares no components")
    triples: list[SLHTriple] = []
    offsets: dict[str, int] = {}
    names: dict[str, list[str]] = {"in": [], "out": []}
    for inst in nd.instances:
        try:
            params = {k: build_value(v) for k, v in inst.params.items()}
            truncation = params.pop("truncation", None)
            g = catalog.instantiate(inst.kind, label=inst.name, truncation=truncation, **params)
        except Exception as exc:
            raise ElaborationError(
                f"{inst.pos[0]}:{inst.pos[1]}: cannot instantiate {inst.name!r}: {exc}"
            ) from exc
        offsets[inst.name] = len(names["in"])
        for side, side_names in names.items():
            side_names += [f"{inst.name}.{side}[{k + 1}]" for k in range(g.n_ports)]
        triples.append(g)
    for e in nd.exposes:
        names[e.side][offsets[e.instance] + e.index - 1] = e.label
    net = concat(*triples).with_names(input_names=names["in"], output_names=names["out"])

    wiring = [
        (offsets[w.src[0]] + w.src[1], offsets[w.dst[0]] + w.dst[1]) for w in nd.wires
    ]
    try:
        reduced = feedback_multi(net, wiring).triple
    except CompositionError as exc:
        wires = ", ".join(f"{w.src[0]}.out[{w.src[1]}]->{w.dst[0]}.in[{w.dst[1]}]" for w in nd.wires)
        kind = "algebraic loop" if isinstance(exc, AlgebraicLoopError) else "composition error"
        raise ElaborationError(f"{kind} while closing wires [{wires}]: {exc}") from exc
    return ElaborationResult(reduced, _initial_state(nd, triples, reduced.space))


def _initial_state(nd, triples, space: LabeledSpace) -> Operator:
    """Per-factor initial states: explicit `state` declarations override
    source-model metadata defaults; everything else starts in vacuum."""
    factor_states: dict[str, np.ndarray] = {}
    for g in triples:
        meta = g.metadata.get("initial_state") or {}
        for lbl, spec in meta.items():
            factor_states[lbl] = _atom_vector(spec, space.dim_of(lbl))
    instance_factors = {inst.name: g.space.labels for inst, g in zip(nd.instances, triples)}
    declared = {s.instance: s for s in nd.states}
    for inst_name, st in declared.items():
        labels = sorted(instance_factors[inst_name])
        if len(st.atoms) != len(labels):
            raise ElaborationError(
                f"{st.pos[0]}:{st.pos[1]}: state for {inst_name!r} has {len(st.atoms)} factors, "
                f"component has {len(labels)} ({', '.join(labels)})"
            )
        for lbl, atom in zip(labels, st.atoms):
            factor_states[lbl] = _atom_vector((atom.kind, atom.arg), space.dim_of(lbl))
    return product_density(space, factor_states)


def _atom_vector(spec, dim: int) -> np.ndarray:
    kind, arg = spec if isinstance(spec, tuple) else (spec, None)
    if kind == "coherent":
        return coherent_vector(dim, complex(arg))
    if kind == "vacuum":
        level = 0
    elif kind == "fock":
        level = int(arg)
        if level >= dim:
            raise ElaborationError(f"fock({level}) does not fit in a dim-{dim} factor")
    elif kind == "qubit":
        if dim != 2:
            raise ElaborationError(f"qubit state on a dim-{dim} factor")
        level = 1 if arg == "excited" else 0
    else:
        raise ElaborationError(f"unknown state spec {kind!r}")
    return np.eye(dim, dtype=complex)[level]


def ast_to_dict(nd: NetworkDescription) -> dict:
    """JSON-ready dump of the AST (for --emit ast)."""

    def value(v):
        if isinstance(v, CallValue):
            return {"call": v.name, "params": {k: value(x) for k, x in v.params.items()}}
        if isinstance(v, complex):
            return {"re": v.real, "im": v.imag}
        return v

    return {
        "instances": [
            {"name": c.name, "kind": c.kind, "params": {k: value(v) for k, v in c.params.items()}}
            for c in nd.instances
        ],
        "wires": [
            {"from": {"instance": w.src[0], "port": w.src[1]},
             "to": {"instance": w.dst[0], "port": w.dst[1]}}
            for w in nd.wires
        ],
        "exposes": [
            {"instance": e.instance, "side": e.side, "port": e.index, "label": e.label}
            for e in nd.exposes
        ],
        "states": [
            {"instance": s.instance,
             "atoms": [{"kind": a.kind, "arg": value(a.arg)} for a in s.atoms]}
            for s in nd.states
        ],
    }
