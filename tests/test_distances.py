import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import noisy_strings
from fishdbc import distances


def naive_euclidean(a, b):
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) ** 2
    return math.sqrt(total)


def reference_jaro_winkler_similarity(s1, s2):
    """Independent reference: index-scan formulation with explicit
    assignment strings, used only to cross-check the packaged version.
    """
    if s1 == s2:
        return 1.0
    len1, len2 = len(s1), len(s2)
    if not len1 or not len2:
        return 0.0
    halflen = max(len1, len2) // 2 - 1
    assigned1 = []
    assigned2 = []
    work2 = list(s2)
    for i in range(len1):
        start = max(0, i - halflen)
        end = min(len2, i + halflen + 1)
        for j in range(start, end):
            if work2[j] == s1[i]:
                assigned1.append(s1[i])
                work2[j] = None
                break
    work1 = list(s1)
    for i in range(len2):
        start = max(0, i - halflen)
        end = min(len1, i + halflen + 1)
        for j in range(start, end):
            if work1[j] == s2[i]:
                assigned2.append(s2[i])
                work1[j] = None
                break
    common = len(assigned1)
    if common == 0:
        return 0.0
    transpositions = sum(a != b for a, b in zip(assigned1, assigned2)) // 2
    jaro = (
        common / len1 + common / len2 + (common - transpositions) / common
    ) / 3.0
    prefix = 0
    for a, b in zip(s1, s2):
        if a != b or prefix == 4:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


def _loop_jaro(a, b):
    la, lb = len(a), len(b)
    if la == 0 and lb == 0:
        return 1.0
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    match_a = [False] * la
    match_b = [False] * lb
    matches = 0
    for i in range(la):
        start = max(0, i - window)
        end = min(lb, i + window + 1)
        for j in range(start, end):
            if not match_b[j] and a[i] == b[j]:
                match_a[i] = True
                match_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(la):
        if match_a[i]:
            while not match_b[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    t = transpositions // 2
    m = float(matches)
    return (m / la + m / lb + (m - t) / m) / 3.0


def loop_jaro_winkler(a, b):
    """The index-loop Jaro-Winkler that ``distances.jaro_winkler`` must
    equal bit for bit: the packaged kernel scans with ``str.find``."""
    sim = _loop_jaro(a, b)
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix == 4:
            break
        prefix += 1
    sim += prefix * 0.1 * (1.0 - sim)
    return 1.0 - sim


class TestEuclidean:
    def test_three_four_five(self):
        assert distances.euclidean([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_identity(self, rng):
        x = rng.random(17)
        assert distances.euclidean(x, x) == 0.0

    def test_matches_naive_high_dim(self, rng):
        a = rng.random(1000)
        b = rng.random(1000)
        got = distances.euclidean(a, b)
        want = naive_euclidean(a, b)
        assert got == pytest.approx(want, rel=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            distances.euclidean([1.0, 2.0], [1.0, 2.0, 3.0])


class TestEuclideanMany:
    @pytest.mark.parametrize("dim", [1, 2, 3, 10, 100, 1000])
    def test_equals_scalar_bit_for_bit(self, rng, dim):
        for scale in (1e-3, 1.0, 1e3):
            a = rng.normal(size=dim) * scale
            bs = list(rng.normal(size=(40, dim)) * scale)
            want = [distances.euclidean(a, b).hex() for b in bs]
            got = distances.euclidean_many(a, bs)
            assert [v.hex() for v in got] == want
            # the same values with the arguments swapped
            assert [distances.euclidean(b, a).hex() for b in bs] == want

    def test_list_payloads(self, rng):
        a = rng.random(7).tolist()
        bs = rng.random((12, 7)).tolist()
        got = distances.euclidean_many(a, bs)
        assert got == [distances.euclidean(a, b) for b in bs]

    @pytest.mark.parametrize("a, bs", [
        ([0.0, 0.0], [[1.0, 1.0], [2.0, 2.0, 2.0]]),  # ragged rows
        ([0.0, 0.0, 0.0], [[1.0, 1.0], [2.0, 2.0]]),  # rows shorter than a
        ([0.0], [[1.0, 1.0], [2.0, 2.0]]),  # would broadcast
        (0.0, [1.0, 2.0]),  # scalars
        ("ab", ["cd", "ef"]),  # not numbers
    ])
    def test_unhandled_payloads_return_none(self, a, bs):
        assert distances.euclidean_many(a, bs) is None

    def test_registered_as_batched_form(self):
        assert distances.MANY == {distances.euclidean: distances.euclidean_many}


class TestCosine:
    def test_parallel(self):
        assert distances.cosine([1.0, 2.0], [2.0, 4.0]) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert distances.cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_sparse_matches_dense_expansion(self, rng):
        dim = 200
        for _ in range(20):
            keys_a = rng.choice(dim, size=30, replace=False)
            keys_b = rng.choice(dim, size=30, replace=False)
            a = {int(k): float(rng.random()) + 0.1 for k in keys_a}
            b = {int(k): float(rng.random()) + 0.1 for k in keys_b}
            dense_a = np.zeros(dim)
            dense_b = np.zeros(dim)
            for k, v in a.items():
                dense_a[k] = v
            for k, v in b.items():
                dense_b[k] = v
            assert distances.cosine(a, b) == pytest.approx(
                distances.cosine(dense_a, dense_b), abs=1e-9
            )

    def test_zero_norm_is_error(self):
        with pytest.raises(ValueError, match="zero-norm"):
            distances.cosine([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="zero-norm"):
            distances.cosine({}, {1: 1.0})

    @pytest.mark.parametrize("magnitude", [1e-300, 1e-160, 1e-100, 1.16e77, 1e100, 1e300])
    def test_extreme_magnitudes(self, magnitude):
        a = np.array([3.0, 4.0]) * magnitude
        b = np.array([4.0, 3.0]) * magnitude
        want = distances.cosine(np.array([3.0, 4.0]), np.array([4.0, 3.0]))
        assert distances.cosine(a, a) == 0.0
        assert distances.cosine(a, b) == pytest.approx(want, rel=1e-12)
        sa = {0: float(a[0]), 7: float(a[1])}
        sb = {0: float(b[0]), 7: float(b[1])}
        assert distances.cosine(sa, sa) == 0.0
        assert distances.cosine(sa, sb) == pytest.approx(want, rel=1e-12)

    def test_mixed_sparse_dense_is_error(self):
        with pytest.raises(ValueError, match="mix"):
            distances.cosine({0: 1.0}, [1.0, 0.0])


class TestJaccard:
    def test_equal_sets(self):
        assert distances.jaccard({1, 2}, {1, 2}) == 0.0

    def test_disjoint(self):
        assert distances.jaccard({1, 2}, {3, 4}) == 1.0

    def test_half_overlap(self):
        assert distances.jaccard({1, 2, 3}, {2, 3, 4}) == 0.5

    def test_both_empty(self):
        assert distances.jaccard(set(), set()) == 0.0


class TestJaroWinkler:
    def test_equal(self):
        assert distances.jaro_winkler("abc", "abc") == 0.0

    def test_no_matches(self):
        assert distances.jaro_winkler("abc", "xyz") == 1.0

    def test_classic_worked_example(self):
        # MARTHA/MARHTA: 6 matches, 1 transposition, common prefix 3.
        got = distances.jaro_winkler("MARTHA", "MARHTA")
        assert got == pytest.approx(1.0 - 0.9611, abs=1e-3)
        want = 1.0 - reference_jaro_winkler_similarity("MARTHA", "MARHTA")
        assert got == pytest.approx(want, abs=1e-12)

    def test_matches_reference_on_random_strings(self, rng):
        alphabet = "abcdef"
        for _ in range(300):
            n1 = int(rng.integers(0, 12))
            n2 = int(rng.integers(0, 12))
            s1 = "".join(rng.choice(list(alphabet), size=n1))
            s2 = "".join(rng.choice(list(alphabet), size=n2))
            got = distances.jaro_winkler(s1, s2)
            want = 1.0 - reference_jaro_winkler_similarity(s1, s2)
            assert got == pytest.approx(want, abs=1e-12), (s1, s2)

    @settings(deadline=None, max_examples=500)
    @given(data=st.data(), alphabet=st.sampled_from(
        ["ab", "abcd", "abcdefghijklmnopqrstuvwxyz", "a\u00e9\u20ac\U0001f600"]))
    def test_equals_loop_bit_for_bit(self, data, alphabet):
        text = st.text(alphabet=alphabet, max_size=40)
        a = data.draw(text, label="a")
        b = data.draw(text, label="b")
        assert distances.jaro_winkler(a, b).hex() == loop_jaro_winkler(a, b).hex()
        assert distances.jaro_winkler(b, a).hex() == loop_jaro_winkler(b, a).hex()

    def test_equals_loop_on_noisy_corpus(self):
        strings = noisy_strings(200, np.random.default_rng(20191016))
        for a in strings:
            for b in strings:
                assert distances.jaro_winkler(a, b).hex() == loop_jaro_winkler(a, b).hex(), (a, b)

    @pytest.mark.parametrize("a, b, named", [
        (list("abc"), list("abc"), "list"),
        ("abc", list("abd"), "list"),
        (b"abc", "abc", "bytes"),
        ("abc", None, "NoneType"),
    ])
    def test_non_str_is_type_error(self, a, b, named):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(TypeError, match=named):
                distances.jaro_winkler(x, y)


class TestSimpson:
    def test_identical(self):
        a = np.array([1, 1, 0, 0], dtype=bool)
        assert distances.simpson(a, a) == 0.0

    def test_disjoint(self):
        a = np.array([1, 1, 0, 0], dtype=bool)
        b = np.array([0, 0, 1, 1], dtype=bool)
        assert distances.simpson(a, b) == 1.0

    def test_direct_formula(self):
        a = np.array([1, 1, 0, 0], dtype=bool)
        b = np.array([1, 0, 1, 0], dtype=bool)
        assert distances.simpson(a, b) == 0.5

    def test_all_zero_is_error(self):
        with pytest.raises(ValueError, match="all-zero"):
            distances.simpson(np.zeros(4, dtype=bool), np.ones(4, dtype=bool))

    @pytest.mark.parametrize("a, b", [([1], [0, 1, 0]), ([1], [1, 0, 1]), ([1, 1], [1])])
    def test_length_mismatch(self, a, b):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="length mismatch"):
                distances.simpson(x, y)


class TestHamming:
    def test_equal(self):
        assert distances.hamming("abc", "abc") == 0.0

    def test_one_diff(self):
        assert distances.hamming("abc", "abd") == 1.0

    def test_all_diff(self):
        assert distances.hamming("000", "111") == 3.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            distances.hamming("abc", "ab")


def _random_payload_pairs(name, rng, count):
    alphabet = list("abcdefgh")
    for _ in range(count):
        if name == "euclidean":
            yield rng.random(8), rng.random(8)
        elif name == "cosine":
            yield rng.random(8) + 0.01, rng.random(8) + 0.01
        elif name == "jaccard":
            yield (
                frozenset(rng.integers(0, 30, size=8).tolist()),
                frozenset(rng.integers(0, 30, size=8).tolist()),
            )
        elif name == "jaro-winkler":
            yield (
                "".join(rng.choice(alphabet, size=int(rng.integers(1, 15)))),
                "".join(rng.choice(alphabet, size=int(rng.integers(1, 15)))),
            )
        elif name == "simpson":
            a = rng.random(16) < 0.5
            b = rng.random(16) < 0.5
            a[int(rng.integers(16))] = True
            b[int(rng.integers(16))] = True
            yield a, b
        elif name == "hamming":
            yield (
                "".join(rng.choice(alphabet, size=10)),
                "".join(rng.choice(alphabet, size=10)),
            )


@pytest.mark.parametrize("name", sorted(distances.BUILTIN))
def test_symmetry_and_zero_self_fuzz(name, rng):
    fn = distances.BUILTIN[name]
    for a, b in _random_payload_pairs(name, rng, 1000):
        d_ab = fn(a, b)
        d_ba = fn(b, a)
        assert d_ab == d_ba
        assert d_ab >= 0.0
        assert math.isfinite(d_ab)
    a, _ = next(_random_payload_pairs(name, rng, 1))
    assert fn(a, a) == 0.0


def test_by_name_lists_valid_names_on_error():
    with pytest.raises(ValueError) as exc:
        distances.by_name("mahalanobis")
    for name in distances.BUILTIN:
        assert name in str(exc.value)
