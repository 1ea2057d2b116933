import os
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from reference import sample_representations

import exacthom.classify
from exacthom.classify import (
    CHECKS,
    SampleConfig,
    TheoremReport,
    _self_pair_violations,
    check_concentrated_lemma,
    check_sphere_theorem,
    check_torus_theorem,
    commuting_invertible_pairs,
    enumerate_matrices,
    enumerate_spaces,
    enumerate_sphere_representations,
    enumerate_torus_representations,
    sample_representation_at,
)
from exacthom._shares import chunk_bounds
from exacthom.graded import GradedVectorSpace
from exacthom.errors import FormatError
from exacthom.quiver import (
    euler_of_hom,
    floer_cohomology,
    sphere_quiver,
    torus_quiver,
)


class TestConfig:
    def test_defaults(self):
        cfg = SampleConfig()
        assert cfg.seed == 0
        assert cfg.count == 100
        assert cfg.max_total_dim == 3

    def test_bad_count(self):
        with pytest.raises(FormatError):
            SampleConfig(count=0)

    def test_bad_dim(self):
        with pytest.raises(FormatError):
            SampleConfig(max_total_dim=0)


class TestSampling:
    def test_sphere_samples_validate(self):
        cfg = SampleConfig(seed=7, count=40)
        reps = sample_representations(sphere_quiver(), cfg)
        assert len(reps) == 40
        assert all(r.first_violation() is None for r in reps)

    def test_torus_samples_validate(self):
        # commutation and invertibility must hold by construction
        cfg = SampleConfig(seed=11, count=40)
        for rep in sample_representations(torus_quiver(), cfg):
            assert rep.first_violation() is None

    def test_respects_dim_bound(self):
        cfg = SampleConfig(seed=3, count=60, max_total_dim=2)
        for rep in sample_representations(sphere_quiver(), cfg):
            assert 1 <= rep.space.total_dim() <= 2

    def test_respects_degree_band(self):
        cfg = SampleConfig(seed=3, count=60)
        seen = set()
        for quiver in (sphere_quiver(), torus_quiver()):
            for rep in sample_representations(quiver, cfg):
                seen.update(rep.space.degrees())
        assert seen == set(range(-3, 4))

    def test_deterministic(self):
        cfg = SampleConfig(seed=5, count=25)
        a = sample_representations(torus_quiver(), cfg)
        b = sample_representations(torus_quiver(), cfg)
        assert a == b

    def test_seed_changes_stream(self):
        a = sample_representations(sphere_quiver(), SampleConfig(seed=1, count=30))
        b = sample_representations(sphere_quiver(), SampleConfig(seed=2, count=30))
        assert a != b

    def test_indexed_access_matches_stream(self):
        cfg = SampleConfig(seed=9, count=15)
        stream = sample_representations(sphere_quiver(), cfg)
        # Drawn last to first: sample i does not depend on the draws before it.
        for i in reversed(range(cfg.count)):
            assert sample_representation_at(sphere_quiver(), cfg, i) == stream[i]

    def test_parallel_equals_serial(self):
        cfg = SampleConfig(seed=13, count=32)
        serial = [sample_representation_at(torus_quiver(), cfg, i) for i in range(32)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(
                pool.map(lambda i: sample_representation_at(torus_quiver(), cfg, i), range(32))
            )
        assert parallel == serial

    def test_spread_variety(self):
        """The sphere stream must exercise both concentrated and spread
        representations or the theorem checks would be vacuous."""
        cfg = SampleConfig(seed=0, count=80)
        spreads = set()
        for rep in sample_representations(sphere_quiver(), cfg):
            degs = rep.space.degrees()
            spreads.add(max(degs) - min(degs))
        assert 0 in spreads
        assert any(s >= 1 for s in spreads)


class TestSampleBudget:
    """A sample whose blocks would hold more than MAX_DIFFERENTIAL_ENTRIES
    entries is refused after its space is drawn and before any block is."""

    @pytest.mark.parametrize("quiver", [sphere_quiver(), torus_quiver()], ids=["sphere", "torus"])
    def test_refused_before_any_block(self, quiver, monkeypatch):
        monkeypatch.setattr(exacthom.classify, "_sample_matrix", lambda *a: pytest.fail("drawn"))
        cfg = SampleConfig(seed=0, count=1, max_total_dim=20000)
        with pytest.raises(FormatError, match=r"^sample:0 needs \d+ block entries, more than the 2000000 a sample may hold$"):
            sample_representation_at(quiver, cfg, 0)

    @pytest.mark.parametrize("quiver", [sphere_quiver(), torus_quiver()], ids=["sphere", "torus"])
    def test_budget_counts_the_blocks_held(self, quiver, monkeypatch):
        cfg = SampleConfig(seed=3, count=20, max_total_dim=5)
        for index in range(cfg.count):
            rep = sample_representation_at(quiver, cfg, index)
            dims = rep.space.dims
            held = sum(dims.get(i + m.degree, 0) * n for m in rep.maps.values() for i, n in dims.items())
            with monkeypatch.context() as patched:
                patched.setattr(exacthom.classify, "MAX_DIFFERENTIAL_ENTRIES", held)
                assert sample_representation_at(quiver, cfg, index) == rep
                patched.setattr(exacthom.classify, "MAX_DIFFERENTIAL_ENTRIES", held - 1)
                with pytest.raises(FormatError, match=f"^sample:{index} needs {held} block entries"):
                    sample_representation_at(quiver, cfg, index)


class TestEnumeration:
    def test_space_count_dim1(self):
        # one basis vector in one of five degrees
        assert len(list(enumerate_spaces(1, (-2, 2)))) == 5

    def test_space_count_dim2(self):
        # 5 singles + 5 doubled + C(5,2) = 10 split across two degrees
        assert len(list(enumerate_spaces(2, (-2, 2)))) == 20

    def test_commuting_pairs_dim1(self):
        pairs = commuting_invertible_pairs(1, (Fraction(-1), Fraction(1), Fraction(2)))
        assert len(pairs) == 9

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("pool", [(-1, 1, 2), (-1, 0, 1), (Fraction(1, 2), -1, 2)])
    def test_commuting_pairs_equal_all_ordered_pairs(self, dim, pool):
        invertible = [m for m in enumerate_matrices(dim, dim, pool) if m.is_invertible()]
        naive = tuple((a, b) for a in invertible for b in invertible if a @ b == b @ a)
        assert commuting_invertible_pairs(dim, pool) == naive

    def test_commuting_pairs_in_dimension_three(self):
        invertible = [m for m in enumerate_matrices(3, 3, (0, 1)) if m.is_invertible()]
        naive = tuple((a, b) for a in invertible for b in invertible if a @ b == b @ a)
        assert commuting_invertible_pairs(3, (0, 1)) == naive
        assert len(naive) > len(invertible)

    def test_commuting_pairs_are_commuting(self):
        for a, b in commuting_invertible_pairs(2, (Fraction(-1), Fraction(1))):
            assert a @ b == b @ a
            assert a.is_invertible() and b.is_invertible()

    def test_sphere_exhaustive_count(self):
        reps = list(enumerate_sphere_representations())
        assert len(reps) == 28
        assert all(r.first_violation() is None for r in reps)

    def test_torus_exhaustive_valid(self):
        reps = list(enumerate_torus_representations())
        assert len(reps) > 500
        assert all(r.first_violation() is None for r in reps)


class TestChecks:
    def test_sphere_small(self):
        report = check_sphere_theorem(SampleConfig(seed=0, count=25))
        assert report.passed
        assert report.theorem == "sphere"
        assert report.samples_checked == 28 + 25

    def test_concentrated_small(self):
        report = check_concentrated_lemma(SampleConfig(seed=0, count=60))
        assert report.passed
        # only spread-out samples are counted
        assert 0 < report.samples_checked < 60

    def test_torus_small(self):
        report = check_torus_theorem(SampleConfig(seed=0, count=25, max_total_dim=2))
        assert report.passed
        assert report.samples_checked > 25

    def test_reports_deterministic(self):
        cfg = SampleConfig(seed=42, count=30)
        assert check_sphere_theorem(cfg) == check_sphere_theorem(cfg)
        assert check_torus_theorem(cfg) == check_torus_theorem(cfg)

    def test_payload_shape(self):
        report = check_concentrated_lemma(SampleConfig(seed=1, count=20))
        payload = report.to_payload()
        assert set(payload) == {"theorem", "checked", "violations"}
        assert payload["theorem"] == "concentrated"
        assert payload["violations"] == []

    def test_run_check_dispatch(self):
        """verify runs CHECKS[theorem]; each entry checks its own theorem."""
        cfg = SampleConfig(seed=0, count=10)
        assert list(CHECKS) == ["sphere", "torus", "concentrated"]
        for name, check in CHECKS.items():
            assert check(cfg).theorem == name

    def test_concentrated_support_shape(self):
        """The closed form at the ends, the support bound and duality, for
        sampled spread representations."""
        cfg = SampleConfig(seed=17, count=40)
        seen = 0
        for rep in sample_representations(sphere_quiver(), cfg):
            degs = rep.space.degrees()
            lo, hi = min(degs), max(degs)
            k = hi - lo
            if k < 1:
                continue
            hf = floer_cohomology(rep, rep)
            ends = rep.space.dim(lo) * rep.space.dim(hi)
            assert hf.dim(-k) == hf.dim(k + 2) == ends
            assert all(-k <= d <= k + 2 for d in hf.dims)
            assert all(hf.dim(d) == hf.dim(2 - d) for d in range(-k, k + 3))
            seen += 1
        assert seen > 0

    def test_one_degree_closed_form(self):
        for rep in enumerate_sphere_representations():
            m = rep.space.total_dim()
            if len(rep.space.degrees()) == 1:
                assert floer_cohomology(rep, rep).dims == {0: m * m, 2: m * m}


class TestChecksCanFail:
    """Each sweep reports a cohomology that breaks duality or the closed form."""

    SKEWED = "duality HF^d = HF^(2-d) fails at d in [0]:"

    @staticmethod
    def spread(rep):
        return max(rep.space.degrees()) - min(rep.space.degrees())

    @pytest.fixture
    def skewed(self, monkeypatch):
        """HF^0 one too large on spread >= 1 spaces: only duality breaks."""
        true = floer_cohomology

        def skew(v, w):
            dims = dict(true(v, w).dims)
            if self.spread(v) >= 1:
                dims[0] = dims.get(0, 0) + 1
            return GradedVectorSpace(dims)

        monkeypatch.setattr(exacthom.classify, "floer_cohomology", skew)

    def test_sphere_reports_broken_duality(self, skewed):
        cfg = SampleConfig(seed=3, count=40)
        report = check_sphere_theorem(cfg)
        reps = [*enumerate_sphere_representations(), *sample_representations(sphere_quiver(), cfg)]
        assert len(report.violations) == sum(self.spread(r) >= 1 for r in reps) > 0
        assert all(v["detail"].startswith(self.SKEWED) for v in report.violations)

    def test_concentrated_reports_broken_duality(self, skewed):
        report = check_concentrated_lemma(SampleConfig(seed=3, count=40))
        assert len(report.violations) == report.samples_checked > 0
        assert all(v["detail"].startswith(self.SKEWED) for v in report.violations)

    def test_empty_cohomology_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(
            exacthom.classify, "floer_cohomology", lambda v, w: GradedVectorSpace({})
        )
        cfg = SampleConfig(seed=3, count=10)
        assert len(check_sphere_theorem(cfg).violations) == 28 + 10
        report = check_concentrated_lemma(cfg)
        assert len(report.violations) == report.samples_checked > 0


def sweep_reps(theorem, cfg):
    """(label, rep) for every representation a sphere-quiver sweep checks."""
    samples = [(f"sample:{i}", sample_representation_at(sphere_quiver(), cfg, i)) for i in range(cfg.count)]
    if theorem == "concentrated":
        return [(label, rep) for label, rep in samples if len(rep.space.degrees()) > 1]
    exhaustive = [(f"exhaustive:{j}", rep) for j, rep in enumerate(enumerate_sphere_representations())]
    return exhaustive + samples


def reference_report(theorem, cfg):
    """The sweep as a plain loop: floer_cohomology for every representation."""
    reps = sweep_reps(theorem, cfg)
    violations = [
        v
        for label, rep in reps
        for v in _self_pair_violations(rep.space, exacthom.classify.floer_cohomology(rep, rep), label)
    ]
    return TheoremReport(theorem, len(reps), tuple(violations))


def content(rep):
    return rep.space, rep.maps["z"]


def odd_nonzeros(rep):
    """1 if the maps of rep hold an odd number of nonzero entries, else 0."""
    return sum(x != 0 for m in rep.maps.values() for b in m.blocks().values() for x in b.numerators) % 2


@pytest.fixture(params=["true", "skewed"])
def hf(request, monkeypatch):
    """floer_cohomology and euler_of_hom as they are, or made wrong where the
    maps hold an odd number of nonzero entries, so that reports carry
    violations: HF^0 one too large breaks duality, and chi becomes 1."""
    if request.param == "skewed":
        true_hf, true_euler = floer_cohomology, euler_of_hom

        def skew(v, w):
            dims = dict(true_hf(v, w).dims)
            dims[0] = dims.get(0, 0) + odd_nonzeros(v)
            return GradedVectorSpace(dims)

        monkeypatch.setattr(exacthom.classify, "floer_cohomology", skew)
        monkeypatch.setattr(exacthom.classify, "euler_of_hom", lambda v, w: true_euler(v, w) + odd_nonzeros(v))
    return request.param


class TestHFTable:
    """The per-sweep HF(V, V) table changes no report."""

    CHECKS = {"sphere": check_sphere_theorem, "concentrated": check_concentrated_lemma}

    @pytest.mark.parametrize("theorem", ["sphere", "concentrated"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("max_dim, count", [(4, 400), (8, 100)])
    def test_matches_plain_loop(self, hf, theorem, seed, max_dim, count):
        cfg = SampleConfig(seed=seed, count=count, max_total_dim=max_dim)
        report = self.CHECKS[theorem](cfg)
        assert report == reference_report(theorem, cfg)
        if hf == "skewed":
            assert report.violations

    @pytest.mark.parametrize("theorem", ["sphere", "concentrated"])
    def test_wrong_hf_flags_every_duplicate(self, theorem, monkeypatch):
        cfg = SampleConfig(seed=1, count=200, max_total_dim=4)
        reps = sweep_reps(theorem, cfg)
        labels = {}
        for label, rep in reps:
            labels.setdefault(content(rep), []).append(label)
        wrong, expected = max(labels.items(), key=lambda kv: len(kv[1]))
        assert len(expected) > 1
        true = floer_cohomology
        monkeypatch.setattr(
            exacthom.classify, "floer_cohomology",
            lambda v, w: GradedVectorSpace({}) if content(v) == wrong else true(v, w),
        )
        report = self.CHECKS[theorem](cfg)
        assert [v["sample"] for v in report.violations] == expected
        assert report == reference_report(theorem, cfg)

    @pytest.mark.parametrize("cap", [0, 5, 40])
    def test_table_stops_growing_at_its_cap(self, cap, monkeypatch, cpus):
        # The cap holds per process, and calls are counted in this one.
        cpus(1)
        cfg = SampleConfig(seed=2, count=200, max_total_dim=4)
        kept, expected_calls = set(), 0
        for _, rep in sweep_reps("sphere", cfg):
            if content(rep) not in kept:
                expected_calls += 1
                if len(kept) < cap:
                    kept.add(content(rep))
        assert expected_calls > len(kept) == cap
        calls = []
        true = floer_cohomology
        monkeypatch.setattr(exacthom.classify, "_HF_TABLE_CAP", cap)
        monkeypatch.setattr(exacthom.classify, "floer_cohomology", lambda v, w: calls.append(v) or true(v, w))
        report = check_sphere_theorem(cfg)
        assert len(calls) == expected_calls
        assert report.samples_checked == 228 and report.passed


class TestSplitSweep:
    """A sweep split over forked children reports what a serial one does."""

    @staticmethod
    def serial_and_split(theorem, cfg, children, cpus, monkeypatch):
        """The report on one CPU, and on as many CPUs as children with its
        forks counted."""
        cpus(1)
        serial = CHECKS[theorem](cfg)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        cpus(children)
        split = CHECKS[theorem](cfg)
        assert len(forks) == children
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return serial, split

    @pytest.mark.parametrize("theorem", ["sphere", "concentrated", "torus"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_two_children_report_what_one_process_does(self, hf, theorem, seed, cpus, monkeypatch):
        cfg = SampleConfig(seed=seed, count=600, max_total_dim=4)
        serial, split = self.serial_and_split(theorem, cfg, 2, cpus, monkeypatch)
        assert split == serial
        if hf == "skewed":
            # The violations lie in most chunks, so the merge takes them
            # from both children.
            exhaustive = {"sphere": 28, "concentrated": 0, "torus": 1068}[theorem]
            bounds = chunk_bounds(exhaustive + cfg.count)
            chunks = {
                next(c for c, (_, stop) in enumerate(bounds) if p < stop)
                for p in (int(n) + (exhaustive if kind == "sample" else 0)
                          for kind, n in (v["sample"].split(":") for v in serial.violations))
            }
            assert len(chunks) > len(bounds) // 2
        else:
            assert serial.passed

    @pytest.mark.parametrize("hf", ["skewed"], indirect=True)
    @pytest.mark.parametrize("theorem", ["sphere", "concentrated", "torus"])
    def test_three_children_report_what_one_process_does(self, hf, theorem, cpus, monkeypatch):
        cfg = SampleConfig(seed=1, count=800, max_total_dim=4)
        serial, split = self.serial_and_split(theorem, cfg, 3, cpus, monkeypatch)
        assert split == serial and len(serial.violations) > 100

    def test_every_item_but_the_last_chunk_is_examined_once_in_a_child(self, cpus, monkeypatch):
        """With HF wrong only in the children, every item outside the last
        chunk (this process's own) is a violation, reported once and in
        position order: 28 exhaustive, then samples."""
        parent, true = os.getpid(), floer_cohomology
        monkeypatch.setattr(
            exacthom.classify, "floer_cohomology",
            lambda v, w: GradedVectorSpace({}) if os.getpid() != parent else true(v, w),
        )
        cpus(3)
        report = check_sphere_theorem(SampleConfig(seed=1, count=800, max_total_dim=4))
        labels = [v["sample"] for v in report.violations]
        last_start, _ = chunk_bounds(28 + 800)[-1]
        assert sorted(set(labels), key=labels.index) == (
            [f"exhaustive:{p}" for p in range(28)] + [f"sample:{i}" for i in range(last_start - 28)]
        )
