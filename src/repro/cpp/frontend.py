"""Front-end driver: source files -> IL tree.

One :class:`Frontend` owns a :class:`SourceManager` (so in-memory corpora
can be registered once) and compiles translation units:

    fe = Frontend(FrontendOptions(include_paths=["include"]))
    fe.register_files({"a.h": "...", "main.cpp": "..."})
    tree = fe.compile("main.cpp")

``compile_many`` compiles several TUs independently (one ILTree each),
which is the input situation for the paper's ``pdbmerge`` workflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.cpp.diagnostics import CppError, DiagnosticSink, TooManyErrors
from repro.cpp.headercache import HeaderCache
from repro.cpp.il import ILTree
from repro.cpp.instantiate import InstantiationEngine, InstantiationMode
from repro.cpp.preprocessor import Preprocessor
from repro.cpp.scope import Binder
from repro.cpp.source import SourceManager


@dataclass
class FrontendOptions:
    """Compilation options.

    ``instantiation_mode`` selects the EDG-style scheme (paper Section 2):
    USED is what PDT needs; ALL and PRELINK exist for benches E10/E11.

    ``fatal_errors=False`` turns on EDG-style error recovery: user-source
    errors are recorded on the sink and the front end resynchronises and
    keeps going, so :meth:`Frontend.compile` returns a *partial* IL tree
    plus the diagnostic list instead of raising.  ``max_errors`` bounds
    the cascade (the ``--keep-going-errors N`` option).
    """

    include_paths: list[str] = field(default_factory=list)
    instantiation_mode: InstantiationMode = InstantiationMode.USED
    predefined_macros: dict[str, str] = field(default_factory=dict)
    fatal_errors: bool = True
    max_errors: int = 50
    #: memoize preprocessed ``#include`` subtrees across the TUs this
    #: Frontend compiles (output is byte-identical either way; see
    #: :mod:`repro.cpp.headercache`)
    header_cache: bool = True


class Frontend:
    """Compiles translation units into IL trees."""

    def __init__(
        self,
        options: Optional[FrontendOptions] = None,
        manager: Optional[SourceManager] = None,
    ):
        self.options = options or FrontendOptions()
        self.manager = manager or SourceManager(self.options.include_paths)
        if manager is not None and self.options.include_paths:
            for p in self.options.include_paths:
                if p not in self.manager.include_paths:
                    self.manager.include_paths.append(p)
        self.last_sink: Optional[DiagnosticSink] = None
        self.last_engine: Optional[InstantiationEngine] = None
        #: True when the last ``compile`` hit the ``max_errors`` cascade
        #: bound and gave up early (its tree is partial at best)
        self.last_error_overflow: bool = False
        #: files the preprocessor consumed for the last ``compile`` call,
        #: in first-use order — the hash set for pdbbuild's incremental cache
        self.last_consumed_files: list = []
        #: per-TU results of the last ``compile_many`` call, parallel to
        #: its input list (``compile`` overwrites the ``last_*`` scalars
        #: per TU, so multi-TU callers read these instead)
        self.last_sinks: list = []
        self.last_engines: list = []
        self.last_consumed_files_per_tu: list = []
        #: shared across every TU this Frontend compiles
        self.header_cache: Optional[HeaderCache] = (
            HeaderCache() if self.options.header_cache else None
        )

    def register_files(self, files: dict[str, str]) -> None:
        """Register in-memory sources (corpora, generated code)."""
        self.manager.register_many(files)

    def compile(self, main_file: str) -> ILTree:
        """Compile one translation unit.

        With ``fatal_errors=False`` the front end recovers from
        user-source errors (lexical, preprocessor, and parse) and this
        returns whatever IL was built, with the error list available on
        :attr:`last_sink` — the paper's EDG behaviour of emitting usable
        IL for broken translation units.  A runaway cascade past
        ``max_errors`` stops the unit early but still returns the
        partial tree."""
        from repro.cpp.declparse import Parser

        sink = DiagnosticSink(
            fatal_errors=self.options.fatal_errors,
            max_errors=self.options.max_errors,
        )
        self.last_sink = sink
        self.last_engine = None
        self.last_error_overflow = False
        hc = self.header_cache
        hc_base = (hc.hits, hc.misses, hc.uncacheable) if hc is not None else None
        predefined = {"__cplusplus": "199711", **self.options.predefined_macros}
        # created before anything can raise, so the finally block below
        # always has a preprocessor (and a source slot) to read from —
        # a missing main file propagates FileNotFoundError cleanly
        # instead of tripping over unbound locals
        pp = Preprocessor(self.manager, sink, predefined, header_cache=hc)
        tree = ILTree()
        src = None
        try:
            src = self.manager.load(main_file)
            tree.main_file = src
            # phase-scoped self-observability (spans are collected only
            # while repro.obs has an observer installed); binding is
            # interleaved with parsing, so its time reports under
            # cpp.parse, and the engine times its own drains under
            # cpp.instantiate (nested in cpp.parse when the parser drains)
            with obs.observe("cpp.preprocess", cat="cpp", file=main_file):
                tokens = pp.preprocess(src)
            engine = InstantiationEngine(
                tree, tokens, sink, self.options.instantiation_mode
            )
            self.last_engine = engine
            binder = Binder(tree)
            parser = Parser(tokens, tree, binder, sink, engine)
            with obs.observe("cpp.parse", cat="cpp", file=main_file):
                parser.parse_translation_unit()
            engine.drain()
        except TooManyErrors:
            # cascade bound hit: the sink already holds every diagnostic;
            # degrade to whatever IL was built before giving up
            if self.options.fatal_errors:
                raise
            self.last_error_overflow = True
        except CppError as exc:
            if self.options.fatal_errors:
                raise
            try:
                sink.soft_error(exc.message, exc.location)
            except TooManyErrors:
                pass
        finally:
            self.last_consumed_files = list(pp.consumed_files)
            tree.files = (
                self.manager.inclusion_closure([src]) if src is not None else []
            )
            tree.macros = list(pp.macro_records)
            if hc is not None:
                obs.counter(
                    "frontend.header_cache",
                    hits=hc.hits - hc_base[0],
                    misses=hc.misses - hc_base[1],
                    uncacheable=hc.uncacheable - hc_base[2],
                )
        return tree

    def compile_many(self, main_files: list[str]) -> list[ILTree]:
        """Compile several TUs independently (pdbmerge's input shape).

        ``compile`` overwrites the ``last_sink``/``last_engine``/
        ``last_consumed_files`` scalars on every call, so this also
        accumulates the per-TU values in ``last_sinks``/``last_engines``/
        ``last_consumed_files_per_tu`` (parallel to ``main_files``) —
        diagnostics from every TU stay reachable, not just the last one's."""
        self.last_sinks = []
        self.last_engines = []
        self.last_consumed_files_per_tu = []
        trees = []
        for f in main_files:
            trees.append(self.compile(f))
            self.last_sinks.append(self.last_sink)
            self.last_engines.append(self.last_engine)
            self.last_consumed_files_per_tu.append(self.last_consumed_files)
        return trees
