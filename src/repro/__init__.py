"""repro — a Python reproduction of "The JStar Language Philosophy"
(Utting, Weng & Cleary, 2013).

JStar is a declarative, implicitly-parallel language: Datalog with
negation plus explicit causality timestamps, executed bottom-up through
a Delta/Gamma tuple database, with all parallelism and data-structure
decisions made *outside* the program source.

Subpackages
-----------
``repro.core``
    The language runtime: tables, rules, timestamps, Delta tree,
    Gamma database, the pseudo-naive engine.
``repro.solver``
    SMT-style prover discharging the paper's causality obligations.
``repro.simcore`` / ``repro.exec``
    Virtual-time multicore machine and the execution strategies
    (sequential / simulated fork-join / real threads).
``repro.gamma``
    Swappable Gamma data-structure backends (sorted maps, hash indexes,
    numpy native arrays, ...).
``repro.disruptor``
    LMAX-Disruptor-style ring-buffer substrate (§6.3).
``repro.csvio``
    Byte-oriented CSV substrate + synthetic PVWatts data generator.
``repro.stats`` / ``repro.viz``
    Run statistics and dependency-graph visualisation (Figs 7/9).
``repro.apps``
    The four case-study programs and their hand-coded baselines.
``repro.figures``
    Benchmark harness utilities shared by ``figures/``.
"""

from repro.core import ExecOptions, Program

__version__ = "1.0.0"
__all__ = ["Program", "ExecOptions", "__version__"]
