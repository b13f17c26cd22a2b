"""Fixture tests for every rule of the repro.lint framework.

Each rule gets at least one fixture that fires and one near-miss that must
stay silent, so rule regressions show up as failed assertions rather than
as silently quieter CI runs.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import lint_source
from repro.lint.base import all_checkers
from repro.lint.noqa import comment_waivers
from repro.lint.runner import iter_python_files

REPO_ROOT = Path(__file__).resolve().parents[2]


def findings_for(source: str, path: str = "src/repro/fake.py"):
    return lint_source(path, textwrap.dedent(source))


def codes_for(source: str, path: str = "src/repro/fake.py"):
    return [finding.code for finding in findings_for(source, path)]


# -- registry ---------------------------------------------------------------


def test_all_seven_rules_registered():
    assert set(all_checkers()) == {
        "DET001", "DET002", "DET003", "SIM001", "FLT001", "ERR001", "ERR002",
    }


def test_every_rule_has_message_and_hint():
    for checker in all_checkers().values():
        assert checker.code and checker.message and checker.hint


# -- DET001: ambient random state ------------------------------------------


def test_det001_import_random():
    assert codes_for("import random\n") == ["DET001"]


def test_det001_from_random_import():
    assert codes_for("from random import choice\n") == ["DET001"]


def test_det001_numpy_module_level_function():
    source = """
        import numpy as np
        x = np.random.random()
        y = np.random.randint(0, 10)
    """
    assert codes_for(source) == ["DET001", "DET001"]


def test_det001_numpy_random_submodule_alias():
    source = """
        from numpy import random as npr
        x = npr.rand()
    """
    assert codes_for(source) == ["DET001"]


def test_det001_from_numpy_random_import_function():
    assert codes_for("from numpy.random import rand\n") == ["DET001"]


def test_det001_allows_seeded_constructors():
    source = """
        import numpy as np
        from numpy.random import SeedSequence, default_rng
        rng = np.random.default_rng(np.random.SeedSequence([1, 2]))
        gen: np.random.Generator = default_rng(7)
    """
    assert codes_for(source) == []


# -- DET002: wall clock -----------------------------------------------------


def test_det002_time_module_calls():
    source = """
        import time
        t0 = time.time()
        t1 = time.perf_counter()
        t2 = time.monotonic_ns()
    """
    assert codes_for(source) == ["DET002", "DET002", "DET002"]
    # The rule looks at the read itself, so it does not matter how the
    # function is reached: a packet callback only scheduled events call,
    # or a helper two modules away from the callback that uses it.
    callback = """
        import time

        class Sink:
            def receive(self, pkt):
                pkt.flow.delivered += 1
                self.stamp = time.time()
    """
    (finding,) = findings_for(callback, path="src/repro/net/sink.py")
    assert (finding.code, finding.line) == ("DET002", 7)
    helper = """
        import time

        def stamp():
            return time.time()
    """
    (finding,) = findings_for(helper, path="src/repro/units.py")
    assert (finding.code, finding.line) == ("DET002", 5)


def test_det002_from_time_import():
    assert codes_for("from time import perf_counter\n") == ["DET002"]


def test_det002_datetime_now():
    source = """
        import datetime
        from datetime import datetime as dt
        a = datetime.datetime.now()
        b = dt.utcnow()
    """
    assert codes_for(source) == ["DET002", "DET002"]


def test_det002_exempts_benchmarks_and_cache():
    source = """
        import time
        t0 = time.perf_counter()
    """
    assert codes_for(source, path="benchmarks/test_speed.py") == []
    assert codes_for(source, path="bench/host.py") == []
    assert codes_for(source, path="src/repro/experiments/parallel.py") == []
    # The result cache is not a clock user: its entries carry no timestamp.
    assert codes_for(source, path="src/repro/experiments/cache.py") == ["DET002"]


def test_det002_time_sleep_not_flagged():
    source = """
        import time
        time.sleep(1.0)
    """
    assert codes_for(source) == []


# -- DET003: unordered iteration in scheduling modules ----------------------

_SCHEDULING_PREAMBLE = """
    def pump(sim, items):
        sim.schedule(1.0, print)
"""


def test_det003_set_literal_iteration():
    source = _SCHEDULING_PREAMBLE + """
    def bad(sim):
        for name in {"a", "b"}:
            print(name)
    """
    assert codes_for(source) == ["DET003"]


def test_det003_set_call_iteration():
    source = _SCHEDULING_PREAMBLE + """
    def bad(sim, items):
        for item in set(items):
            print(item)
    """
    assert codes_for(source) == ["DET003"]


def test_det003_dict_keys_iteration():
    source = _SCHEDULING_PREAMBLE + """
    def bad(sim, table):
        for key in table.keys():
            print(key)
    """
    assert codes_for(source) == ["DET003"]


def test_det003_comprehension_over_set():
    source = _SCHEDULING_PREAMBLE + """
    def bad(sim, items):
        return [item for item in set(items)]
    """
    assert codes_for(source) == ["DET003"]


def test_det003_sorted_set_is_clean():
    source = _SCHEDULING_PREAMBLE + """
    def good(sim, items):
        for item in sorted(set(items)):
            print(item)
    """
    assert codes_for(source) == []


def test_det003_a_module_starting_trains_is_a_scheduling_module():
    source = """
    def start(lane, source):
        lane.every(source.emit, 0)

    def bad(items):
        for item in set(items):
            print(item)
    """
    assert codes_for(source) == ["DET003"]


def test_det003_silent_outside_scheduling_modules():
    source = """
        def pure(items):
            for item in set(items):
                print(item)
    """
    assert codes_for(source) == []


# -- SIM001: suspicious scheduling arguments --------------------------------


def test_sim001_literal_negative_delay():
    source = """
        def f(sim):
            sim.schedule(-1.0, print)
    """
    assert codes_for(source) == ["SIM001"]


def test_sim001_float_nan_delay():
    source = """
        def f(sim):
            sim.call(float("nan"), print)
    """
    assert codes_for(source) == ["SIM001"]


def test_sim001_math_inf_delay():
    source = """
        import math
        def f(sim):
            sim.schedule_at(math.inf, print)
    """
    assert codes_for(source) == ["SIM001"]


def test_sim001_lambda_over_loop_variable():
    source = """
        def f(sim, items):
            for item in items:
                sim.schedule(1.0, lambda: print(item))
    """
    assert codes_for(source) == ["SIM001"]


def test_sim001_loop_variable_as_positional_arg_is_clean():
    source = """
        def f(sim, items):
            for item in items:
                sim.schedule(1.0, print, item)
    """
    assert codes_for(source) == []


def test_sim001_lambda_with_default_binding_is_clean():
    source = """
        def f(sim, items):
            for item in items:
                sim.schedule(1.0, lambda item=item: print(item))
    """
    assert codes_for(source) == []


def test_sim001_bad_lane_delay():
    source = """
        import math
        def f(sim):
            sim.lane(-0.5)
            sim.lane(math.nan)
    """
    assert codes_for(source) == ["SIM001", "SIM001"]


def test_sim001_lane_lambda_over_loop_variable():
    source = """
        def f(sim, items):
            lane = sim.lane(0.5)
            for item in items:
                lane.call(lambda: print(item))
    """
    assert codes_for(source) == ["SIM001"]


def test_sim001_lane_every_lambda_over_loop_variable():
    source = """
        def f(sim, items):
            lane = sim.lane(0.5)
            for item in items:
                lane.every(lambda _: print(item), None)
    """
    assert codes_for(source) == ["SIM001"]


def test_sim001_lane_every_is_clean():
    source = """
        def f(sim, source, epochs):
            lane = sim.lane(0.5)
            for epoch in epochs:
                lane.every(source.emit, epoch)
    """
    assert codes_for(source) == []


def test_sim001_lane_call_is_clean():
    source = """
        def f(sim, items):
            lane = sim.lane(0.5)
            for item in items:
                lane.call(print, item)
    """
    assert codes_for(source) == []


def test_sim001_positive_delay_is_clean():
    source = """
        def f(sim):
            sim.schedule(0.5, print)
    """
    assert codes_for(source) == []


# -- FLT001: float equality against simulation time -------------------------


def test_flt001_eq_against_now():
    source = """
        def f(sim):
            if sim.now == 3.0:
                return True
    """
    assert codes_for(source) == ["FLT001"]


def test_flt001_noteq_against_now():
    source = """
        def f(component):
            return component.sim.now != component.deadline
    """
    assert codes_for(source) == ["FLT001"]


def test_flt001_ordering_comparison_is_clean():
    source = """
        def f(sim, deadline):
            return sim.now >= deadline
    """
    assert codes_for(source) == []


def test_flt001_exempt_in_tests():
    source = """
        def test_clock(sim):
            assert sim.now == 10.0
    """
    assert codes_for(source, path="tests/unit/test_engine.py") == []


# -- ERR001: swallowed callback errors --------------------------------------


def test_err001_bare_except_in_scheduling_module():
    source = _SCHEDULING_PREAMBLE + """
    def bad(sim):
        try:
            sim.step()
        except:
            pass
    """
    assert codes_for(source) == ["ERR001"]


def test_err001_except_exception_pass():
    source = _SCHEDULING_PREAMBLE + """
    def bad(sim):
        try:
            sim.step()
        except Exception:
            pass
    """
    assert codes_for(source) == ["ERR001"]
    around_start = """
        def run_scenario(sim, generator, sampler):
            sim.schedule(1.0, sampler.start)
            try:
                generator.start()
            except Exception:
                pass
            sim.run()
    """
    assert codes_for(around_start, path="src/repro/experiments/runner.py") == [
        "ERR001"
    ]


def test_err001_narrow_handler_is_clean():
    source = _SCHEDULING_PREAMBLE + """
    def good(sim):
        try:
            sim.step()
        except ValueError:
            pass
    """
    assert codes_for(source) == []


def test_err001_handler_with_real_body_is_clean():
    source = _SCHEDULING_PREAMBLE + """
    def good(sim, log):
        try:
            sim.step()
        except Exception as exc:
            log.append(exc)
            raise
    """
    assert codes_for(source) == []


def test_err001_silent_outside_scheduling_modules():
    source = """
        def parse(text):
            try:
                return int(text)
            except:
                return None
    """
    assert codes_for(source) == []


# -- ERR002: silent broad handlers in non-scheduling library code -----------


def test_err002_except_exception_pass():
    source = """
        def load(path):
            try:
                return open(path).read()
            except Exception:
                pass
    """
    assert codes_for(source) == ["ERR002"]


def test_err002_bare_except_docstring_only():
    source = """
        def load(path):
            try:
                return open(path).read()
            except:
                "tolerate anything"
    """
    assert codes_for(source) == ["ERR002"]


def test_err002_broad_member_of_tuple():
    source = """
        def load(path):
            try:
                return open(path).read()
            except (OSError, Exception):
                pass
    """
    assert codes_for(source) == ["ERR002"]


def test_err002_narrow_silent_handler_is_clean():
    source = """
        def load(path):
            try:
                return open(path).read()
            except OSError:
                pass
    """
    assert codes_for(source) == []


def test_err002_broad_handler_with_real_body_is_clean():
    source = """
        def load(path, log):
            try:
                return open(path).read()
            except Exception as exc:
                log.append(exc)
                raise
    """
    assert codes_for(source) == []


def test_err002_defers_to_err001_in_scheduling_modules():
    source = _SCHEDULING_PREAMBLE + """
    def bad(sim):
        try:
            sim.step()
        except Exception:
            pass
    """
    assert codes_for(source) == ["ERR001"]


def test_err002_skips_non_src_paths():
    source = """
        def load(path):
            try:
                return open(path).read()
            except Exception:
                pass
    """
    assert codes_for(source, path="tests/unit/test_fake.py") == []


# -- noqa suppression -------------------------------------------------------


def test_noqa_blanket_suppresses():
    assert codes_for("import random  # noqa\n") == []


def test_noqa_specific_code_suppresses():
    assert codes_for("import random  # noqa: DET001\n") == []


def test_noqa_wrong_code_does_not_suppress():
    assert codes_for("import random  # noqa: DET002\n") == ["DET001"]


def test_noqa_multiple_codes():
    source = """
        import random  # noqa: DET002, DET001
    """
    assert codes_for(source) == []


def test_noqa_only_covers_its_own_line():
    source = """
        import random  # noqa: DET001
        from random import choice
    """
    assert codes_for(source) == ["DET001"]


def test_noqa_inside_a_string_literal_waives_nothing():
    assert codes_for('import random; HINT = "# noqa"\n') == ["DET001"]
    assert codes_for('import random; HINT = "# noqa"  # noqa: DET001\n') == []
    source = """
        import random; HINT = (
            "suppress with '# noqa: DET001'")
    """
    assert codes_for(source) == ["DET001"]


def test_comment_waivers_ignores_strings():
    source = (
        'HINT = "suppress with # noqa: DET001 when legitimate"\n'
        "x = 1  # noqa: DET003\n"
    )
    assert comment_waivers(source) == [(2, "# noqa: DET003")]


def test_comment_waivers_code_filter():
    source = (
        "import os  # noqa: F401\n"
        "y = 2  # noqa\n"
        "z = 3  # noqa: DET001\n"
    )
    codes = frozenset({"DET001"})
    assert comment_waivers(source, codes=codes) == [
        (2, "# noqa"),
        (3, "# noqa: DET001"),
    ]


def test_src_has_zero_noqa_waivers():
    """Policy: waivers are test-only; the library earns a clean bill.

    Blanket ``# noqa`` comments and waivers naming any of this linter's
    own codes both count; flake8-style waivers of foreign codes (e.g.
    ``# noqa: F401`` on a registration import) do not.
    """
    own_codes = frozenset(all_checkers())
    waivers = []
    for path in iter_python_files([str(REPO_ROOT / "src")]):
        source = path.read_text(encoding="utf-8")
        for line, text in comment_waivers(source, codes=own_codes):
            waivers.append(f"{path.as_posix()}:{line}: {text}")
    assert waivers == []


# -- findings carry fix metadata --------------------------------------------


def test_finding_location_and_hint():
    (finding,) = findings_for("import random\n")
    assert finding.path == "src/repro/fake.py"
    assert finding.line == 1
    assert finding.code == "DET001"
    assert "RandomStreams" in finding.hint
    assert finding.render().startswith("src/repro/fake.py:1:")


def test_parse_error_reported_as_finding():
    (finding,) = findings_for("def broken(:\n")
    assert finding.code == "PARSE"
