"""Property-based tests (hypothesis) on core invariants."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpp.lexer import tokenize
from repro.cpp.source import SourceFile
from repro.cpp.tokens import TokenKind, tokens_to_text
from repro.pdbfmt import PdbDocument, RawItem, parse_pdb, write_pdb
from repro.siloon.mangler import demangle_hint, mangle_text
from repro.tau.runtime import Profiler, ThreadProfile

# ---------------------------------------------------------------- lexer

ident = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,10}", fullmatch=True)
number = st.integers(min_value=0, max_value=10**9).map(str)
punct = st.sampled_from(["(", ")", "{", "}", ";", ",", "+", "-", "*", "::", "<<", "->"])
token_text = st.one_of(ident, number, punct)


@given(st.lists(token_text, min_size=0, max_size=30))
@settings(max_examples=200)
def test_lexer_token_stream_roundtrip(parts):
    """Lexing space-joined tokens preserves count and text."""
    src = " ".join(parts)
    toks = [t for t in tokenize(SourceFile(name="p", text=src)) if t.kind is not TokenKind.EOF]
    assert [t.text for t in toks] == parts


@given(st.lists(token_text, min_size=1, max_size=30))
@settings(max_examples=100)
def test_tokens_to_text_relex_fixpoint(parts):
    """text -> tokens -> text -> tokens is stable."""
    src = " ".join(parts)
    toks1 = tokenize(SourceFile(name="p", text=src))
    text1 = tokens_to_text(toks1)
    toks2 = tokenize(SourceFile(name="p", text=text1))
    assert [t.text for t in toks1] == [t.text for t in toks2]


@given(st.text(alphabet=string.printable, max_size=200))
@settings(max_examples=200)
def test_lexer_terminates_or_errors(text):
    """The lexer never hangs: it either tokenises or raises CppError."""
    from repro.cpp.diagnostics import CppError

    try:
        toks = tokenize(SourceFile(name="p", text=text))
    except CppError:
        return
    assert toks[-1].kind is TokenKind.EOF


# ---------------------------------------------------------------- PDB format

pdb_name = st.from_regex(r"[A-Za-z_][A-Za-z0-9_:<>,]{0,15}", fullmatch=True)
attr_word = st.one_of(
    st.from_regex(r"[a-z0-9#]{1,8}", fullmatch=True),
    st.sampled_from(["so#1", "ro#2", "NULL", "pub", "no"]),
)


@st.composite
def pdb_documents(draw):
    doc = PdbDocument()
    n = draw(st.integers(min_value=0, max_value=8))
    counters: dict[str, int] = {}
    for _ in range(n):
        prefix = draw(st.sampled_from(["so", "ro", "cl", "ty", "te", "na", "ma"]))
        counters[prefix] = counters.get(prefix, 0) + 1
        item = RawItem(prefix, counters[prefix], draw(pdb_name))
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            key = prefix[0] + draw(st.from_regex(r"[a-z]{2,6}", fullmatch=True))
            words = draw(st.lists(attr_word, min_size=1, max_size=4))
            item.add(key, *words)
        doc.add(item)
    return doc


@given(pdb_documents())
@settings(max_examples=150)
def test_pdb_write_parse_roundtrip(doc):
    """write -> parse -> write is the identity on PDB text."""
    text = write_pdb(doc)
    assert write_pdb(parse_pdb(text)) == text


@given(pdb_documents())
@settings(max_examples=50)
def test_pdb_parse_preserves_item_count(doc):
    text = write_pdb(doc)
    assert len(parse_pdb(text).items) == len(doc.items)


# ---------------------------------------------------------------- mangler

cpp_name = st.text(
    alphabet=string.ascii_letters + string.digits + "_<>,:~()&* []=+-!%|^/",
    min_size=1,
    max_size=40,
)


@given(cpp_name)
@settings(max_examples=300)
def test_mangle_roundtrip(name):
    """The mangling is invertible (hence injective)."""
    assert demangle_hint(mangle_text(name)) == name


@given(cpp_name)
@settings(max_examples=200)
def test_mangle_produces_identifier(name):
    assert mangle_text(name).isidentifier()


@given(st.lists(cpp_name, min_size=2, max_size=10, unique=True))
@settings(max_examples=100)
def test_mangle_injective_on_sets(names):
    assert len({mangle_text(n) for n in names}) == len(names)


# ---------------------------------------------------------------- TAU runtime

@st.composite
def timer_scripts(draw):
    """Random well-nested timer scripts: (op, arg) sequences."""
    script = []
    depth = 0
    names = ["a", "b", "c", "d"]
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        choices = ["advance"]
        if depth < 6:
            choices.append("start")
        if depth > 0:
            choices.append("stop")
        op = draw(st.sampled_from(choices))
        if op == "start":
            script.append(("start", draw(st.sampled_from(names))))
            depth += 1
        elif op == "stop":
            script.append(("stop", None))
            depth -= 1
        else:
            script.append(("advance", draw(st.floats(min_value=0, max_value=100))))
    for _ in range(depth):
        script.append(("stop", None))
    return script


@given(timer_scripts())
@settings(max_examples=200)
def test_runtime_invariants(script):
    """inclusive >= exclusive >= 0; nothing exceeds total time; exclusive
    sums to total elapsed while timers were running."""
    p = ThreadProfile()
    for op, arg in script:
        if op == "start":
            p.start(arg)
        elif op == "stop":
            p.stop()
        else:
            p.advance(arg)
    p.check_consistency()


@given(timer_scripts())
@settings(max_examples=100)
def test_runtime_call_balance(script):
    """Each timer's call count equals the number of starts."""
    p = ThreadProfile()
    starts: dict[str, int] = {}
    for op, arg in script:
        if op == "start":
            p.start(arg)
            starts[arg] = starts.get(arg, 0) + 1
        elif op == "stop":
            p.stop()
        else:
            p.advance(arg)
    for name, t in p.timers.items():
        assert t.calls == starts.get(name, 0)


@given(timer_scripts())
@settings(max_examples=200)
def test_runtime_inclusive_counts_outermost_activations(script):
    """A timer's inclusive time is the sum of the spans of its outermost
    activations; a recursive re-activation adds none (shadow stack)."""
    p = ThreadProfile()
    shadow: list[tuple[str, float]] = []
    want: dict[str, float] = {}
    for op, arg in script:
        if op == "start":
            p.start(arg)
            shadow.append((arg, p.now))
        elif op == "stop":
            p.stop()
            name, began = shadow.pop()
            if all(n != name for n, _ in shadow):
                want[name] = want.get(name, 0.0) + p.now - began
        else:
            p.advance(arg)
    for name, t in p.timers.items():
        assert t.inclusive == pytest.approx(want.get(name, 0.0))


@st.composite
def open_timer_scripts(draw):
    """Timer scripts that may end with timers still running (no
    auto-close): models a run snapshotted before completion."""
    script = draw(timer_scripts())
    # peel off the balancing stops timer_scripts appended at the end
    while script and script[-1] == ("stop", None):
        if draw(st.booleans()):
            break
        script.pop()
    return script


def _run_script(script):
    p = ThreadProfile()
    for op, arg in script:
        if op == "start":
            p.start(arg)
        elif op == "stop":
            p.stop()
        else:
            p.advance(arg)
    return p


@given(open_timer_scripts())
@settings(max_examples=200)
def test_runtime_dangling_stop_all(script):
    """stop_all unwinds any dangling timers; the result satisfies the
    usual consistency invariants, and matches the non-mutating
    snapshot taken just before."""
    p = _run_script(script)
    snap = p.snapshot_timers()
    p.check_consistency()  # consistency holds even with timers running
    p.stop_all()
    assert p.depth == 0
    p.check_consistency()
    for name, t in p.timers.items():
        assert t.inclusive == pytest.approx(snap[name].inclusive)
        assert t.exclusive == pytest.approx(snap[name].exclusive)


@given(st.lists(timer_scripts(), min_size=1, max_size=4))
@settings(max_examples=100)
def test_mean_stats_scale_to_totals(scripts):
    """mean over N profiles times N equals the total, for every field —
    including fractional call counts (timers absent on some nodes)."""
    profiler = Profiler()
    for node, script in enumerate(scripts):
        prof = profiler.profile(node=node)
        for op, arg in script:
            if op == "start":
                prof.start(arg)
            elif op == "stop":
                prof.stop()
            else:
                prof.advance(arg)
    n = len(profiler.profiles)
    mean, total = profiler.mean_stats(), profiler.total_stats()
    assert set(mean) == set(total)
    for name in mean:
        assert mean[name].calls * n == pytest.approx(total[name].calls)
        assert mean[name].subrs * n == pytest.approx(total[name].subrs)
        assert mean[name].inclusive * n == pytest.approx(total[name].inclusive)
        assert mean[name].exclusive * n == pytest.approx(total[name].exclusive)


@given(timer_scripts())
@settings(max_examples=100)
def test_chrome_trace_events_well_formed(script):
    """Traces built from arbitrary nesting are valid Chrome events:
    metadata first, then body sorted by ts, every X event with
    non-negative ts/dur and string names."""
    from repro import obs

    class Clock:
        t = 0.0

        def __call__(self):
            return self.t

    clock = Clock()
    observer = obs.enable(obs.Observer(clock=clock, epoch=0.0))
    try:
        stack = []
        for op, arg in script:
            if op == "start":
                cm = obs.observe(arg, cat="t")
                cm.__enter__()
                stack.append(cm)
            elif op == "stop":
                stack.pop().__exit__(None, None, None)
            else:
                clock.t += arg
        while stack:
            stack.pop().__exit__(None, None, None)
    finally:
        obs.disable()
    observer.counter("cache", hits=1.0)
    events = obs.chrome_trace_events(
        observer.spans, observer.counters, process_names={observer.pid: "p"}
    )
    meta = [e for e in events if e["ph"] == "M"]
    body = [e for e in events if e["ph"] != "M"]
    assert events == meta + body  # metadata leads
    assert [e["ts"] for e in body] == sorted(e["ts"] for e in body)
    assert len([e for e in body if e["ph"] == "X"]) == sum(
        1 for op, _ in script if op == "start"
    )
    for e in body:
        assert e["ph"] in ("X", "C")
        assert isinstance(e["name"], str) and e["name"]
        assert e["ts"] >= 0
        assert e["ph"] != "X" or (e["dur"] >= 0 and isinstance(e["cat"], str))


# ------------------------------------------------------- front end + merge

from repro.analyzer import analyze  # noqa: E402
from repro.ductape.pdb import PDB  # noqa: E402
from repro.workloads.synth import SynthSpec, generate  # noqa: E402


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=15, deadline=None)
def test_synth_corpus_always_compiles(n_classes, n_templates, insts):
    from repro.workloads.synth import compile_synth

    spec = SynthSpec(
        n_plain_classes=n_classes,
        n_templates=n_templates,
        instantiations_per_template=insts,
        call_depth=2,
    )
    tree, corpus = compile_synth(spec)
    inst = [c for c in tree.all_classes if c.is_instantiation]
    assert len(inst) == corpus.expected_class_instantiations


@given(st.integers(min_value=1, max_value=3))
@settings(max_examples=8, deadline=None)
def test_merge_self_is_noop(n_templates):
    """Merging a PDB with a copy of itself adds nothing."""
    from repro.cpp import Frontend, FrontendOptions

    spec = SynthSpec(n_templates=n_templates)
    corpus = generate(spec)
    fe = Frontend(FrontendOptions())
    fe.register_files(corpus.files)
    a = PDB(analyze(fe.compile(corpus.main_files[0])))
    b = PDB(analyze(fe.compile(corpus.main_files[0])))
    n = len(a.items())
    stats = a.merge(b)
    assert stats.items_added == 0
    assert len(a.items()) == n


@given(st.integers(min_value=2, max_value=4))
@settings(max_examples=6, deadline=None)
def test_used_subset_of_all(k):
    """USED-mode defined routines are a subset of ALL-mode's."""
    from repro.cpp.instantiate import InstantiationMode
    from repro.workloads.synth import compile_synth

    spec = SynthSpec(n_templates=k, instantiations_per_template=1)
    used, _ = compile_synth(spec, mode=InstantiationMode.USED)
    full, _ = compile_synth(spec, mode=InstantiationMode.ALL)
    used_defined = {r.full_name for r in used.all_routines if r.defined}
    all_defined = {r.full_name for r in full.all_routines if r.defined}
    assert used_defined <= all_defined


# --------------------------------------------------- Fortran statement scanner

from repro.cpp.source import SourceFile as _SF  # noqa: E402
from repro.fortran.lexer import split_statements  # noqa: E402

f90_stmt = st.from_regex(r"[a-z][a-z0-9_ =+*()%,]{0,30}[a-z0-9)]", fullmatch=True)


@given(st.lists(f90_stmt, min_size=1, max_size=10))
@settings(max_examples=100)
def test_fortran_statement_count_preserved(stmts):
    """One source line per statement -> same statements back."""
    text = "\n".join(stmts) + "\n"
    out = split_statements(_SF(name="p.f90", text=text))
    expected = [" ".join(s.split()) for s in stmts]
    assert [s.text for s in out] == expected


@given(st.lists(f90_stmt, min_size=1, max_size=6), st.integers(min_value=1, max_value=3))
@settings(max_examples=100)
def test_fortran_continuations_join(stmts, pieces):
    """Splitting a statement across & continuations yields one statement."""
    target = stmts[0]
    words = target.split()
    if len(words) < 2:
        lines = [target]
    else:
        cut = max(1, len(words) // 2)
        lines = [" ".join(words[:cut]) + " &", "   " + " ".join(words[cut:])]
    text = "\n".join(lines) + "\n"
    out = split_statements(_SF(name="p.f90", text=text))
    assert len(out) == 1
    assert out[0].text == " ".join(target.split())


@given(st.text(alphabet="abc'!x \n", max_size=80))
@settings(max_examples=200)
def test_fortran_scanner_never_crashes(text):
    split_statements(_SF(name="p.f90", text=text))


# --------------------------------------------------------- TAU select patterns

from repro.tau.selectfile import SelectiveRules  # noqa: E402

plain_name = st.from_regex(r"[A-Za-z_][A-Za-z0-9_:<>()]{0,20}", fullmatch=True)


@given(plain_name)
@settings(max_examples=100)
def test_selectfile_literal_pattern_matches_itself(name):
    rules = SelectiveRules(exclude=[name])
    assert not rules.allows_routine(name)


@given(plain_name, plain_name)
@settings(max_examples=100)
def test_selectfile_hash_prefix(a, b):
    rules = SelectiveRules(exclude=[a + "#"])
    assert not rules.allows_routine(a + b)


# -------------------------------------------------------- TAU profile files

from repro.tau.profiledata import read_profiles, write_profiles  # noqa: E402
from repro.tau.runtime import Profiler as _Profiler  # noqa: E402

timer_name = st.from_regex(r'[A-Za-z_][A-Za-z0-9_:<> =>()\[\]]{0,25}', fullmatch=True)


@given(
    st.dictionaries(
        timer_name,
        st.tuples(
            st.integers(min_value=1, max_value=10**6),
            st.floats(min_value=0, max_value=1e9, allow_nan=False),
        ),
        min_size=0,
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_profile_file_roundtrip(timers):
    import tempfile

    prof = _Profiler()
    p = prof.profile(0)
    for name, (calls, incl) in timers.items():
        t = p.timer(name.strip() or "x")
        t.calls = calls
        t.inclusive = incl
        t.exclusive = incl / 2
    with tempfile.TemporaryDirectory() as d:
        write_profiles(prof, d)
        loaded = read_profiles(d)
        lp = loaded.profile(0)
        assert set(lp.timers) == set(p.timers)
        for name, t in p.timers.items():
            got = lp.timers[name]
            assert got.calls == t.calls
            assert abs(got.inclusive - t.inclusive) <= max(1e-6, t.inclusive * 1e-5)
