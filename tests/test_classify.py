from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

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
    sample_representations,
)
from exacthom.graded import GradedVectorSpace
from exacthom.errors import FormatError
from exacthom.quiver import (
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
        reps = list(sample_representations(sphere_quiver(), cfg))
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
        a = list(sample_representations(torus_quiver(), cfg))
        b = list(sample_representations(torus_quiver(), cfg))
        assert a == b

    def test_seed_changes_stream(self):
        a = list(sample_representations(sphere_quiver(), SampleConfig(seed=1, count=30)))
        b = list(sample_representations(sphere_quiver(), SampleConfig(seed=2, count=30)))
        assert a != b

    def test_indexed_access_matches_stream(self):
        cfg = SampleConfig(seed=9, count=15)
        stream = list(sample_representations(sphere_quiver(), cfg))
        for i, rep in enumerate(stream):
            assert sample_representation_at(sphere_quiver(), cfg, i) == rep

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
    @pytest.mark.parametrize("pool", [(-1, 1, 2), (-1, 0, 1)])
    def test_commuting_pairs_equal_all_ordered_pairs(self, dim, pool):
        invertible = [m for m in enumerate_matrices(dim, dim, pool) if m.is_invertible()]
        naive = tuple((a, b) for a in invertible for b in invertible if a @ b == b @ a)
        assert commuting_invertible_pairs(dim, pool) == naive

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


class TestHFTable:
    """The per-sweep HF(V, V) table changes no report."""

    CHECKS = {"sphere": check_sphere_theorem, "concentrated": check_concentrated_lemma}

    @pytest.fixture(params=["true", "skewed"])
    def hf(self, request, monkeypatch):
        """floer_cohomology as it is, or made to break duality where z has
        an odd number of nonzero entries, so that reports carry violations."""
        if request.param == "skewed":
            true = floer_cohomology

            def skew(v, w):
                odd = sum(x != 0 for b in v.maps["z"].blocks().values() for x in b.numerators) % 2
                dims = dict(true(v, w).dims)
                dims[0] = dims.get(0, 0) + odd
                return GradedVectorSpace(dims)

            monkeypatch.setattr(exacthom.classify, "floer_cohomology", skew)
        return request.param

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
    def test_table_stops_growing_at_its_cap(self, cap, monkeypatch):
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
