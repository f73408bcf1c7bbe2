"""CSV schemas, manifests, rasters and the spectrum cache contract."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from openbaker import cache as cache_module
from openbaker import csvio
from openbaker.cache import CacheError, SpectrumCache, cache_key
from openbaker.classical import OpeningSpec
from openbaker.propagator import PropagatorSpec
from openbaker.spectra import ResonanceSet, resonance_set
from openbaker.stats import (
    ModulusHistogram,
    RescaledHistogram,
    WeylDataPoint,
    WidthPoint,
    synthetic_power_law_points,
)
from openbaker.trapped import SurvivalSeries, area_series


def test_sweep_csv_schema(tmp_path):
    path = tmp_path / "sweep.csv"
    rows = [(Fraction(0), Fraction(1, 3)), (Fraction(1, 20), Fraction(9, 10))]
    csvio.write_sweep_csv(path, Fraction(1, 10), 9, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "q_c,delta_q,t,area"
    assert lines[1] == "0,0.1,9,0.333333333333"
    assert lines[2] == "0.05,0.1,9,0.9"


def test_series_csv_schema(tmp_path):
    path = tmp_path / "series.csv"
    series = area_series(OpeningSpec(0.5, 0.1), 2)
    csvio.write_series_csv(path, series)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,area"
    assert lines[1] == "0,0.9"
    assert lines[2] == "1,0.8"


def test_spectrum_csv_roundtrip(tmp_path):
    path = tmp_path / "spec.csv"
    values = np.array([1.0 + 0j, 0.5 - 0.25j, 0.0 + 0j])
    csvio.write_spectrum_csv(path, values)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,re,im,modulus,gamma"
    assert lines[3].endswith(",inf")
    assert lines[3].startswith("2,0,0,0,")
    back = csvio.read_spectrum_csv(path)
    assert (back == values).all()
    # serialize the parse-back: stable bytes
    path2 = tmp_path / "spec2.csv"
    csvio.write_spectrum_csv(path2, back)
    assert path2.read_bytes() == path.read_bytes()
    # a solved spectrum parses back bit for bit
    solved = resonance_set(PropagatorSpec(64, OpeningSpec(0.3, 0.1))).values
    csvio.write_spectrum_csv(path, solved)
    assert (csvio.read_spectrum_csv(path) == solved).all()


def test_read_spectrum_rejects_other_headers(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("nu,n\n0.5,1\n")
    with pytest.raises(ValueError, match="header"):
        csvio.read_spectrum_csv(path)


def test_read_spectrum_rejects_rows_without_five_fields(tmp_path):
    path = tmp_path / "x.csv"
    csvio.write_spectrum_csv(path, np.array([0.5 + 0.25j, 0.1j]))
    good = path.read_text()
    for row in ("0,0.5,0.25,0.5590169943749474\n", "0,0.5,0.25,0.56,2.3,9\n", "\n"):
        path.write_text(good + row)
        with pytest.raises(ValueError, match="malformed spectrum row"):
            csvio.read_spectrum_csv(path)


def test_weyl_csv_schema(tmp_path):
    path = tmp_path / "weyl.csv"
    csvio.write_weyl_csv(path, synthetic_power_law_points()[:2])
    lines = path.read_text().splitlines()
    assert lines[0] == "N,count,log10N,log10count"
    assert lines[1].startswith("32,48,")


def test_pgm_bytes(tmp_path):
    path = tmp_path / "img.pgm"
    img = np.array([[True, False], [False, True]])
    csvio.write_pgm(path, img)
    data = path.read_bytes()
    assert data == b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0])
    with pytest.raises(ValueError):
        csvio.write_pgm(path, img.astype(int))


def sig(x, digits: int = 15) -> str:
    """The writers' former per-field rendering, kept as their reference."""
    return format(float(x), f".{digits}g")


def reference_rows(rows) -> bytes:
    return "".join(",".join(row) + "\n" for row in rows).encode("ascii")


def special_doubles(count: int) -> np.ndarray:
    """Signed zeros, infinities, nan, subnormals and random bit patterns."""
    tiny = np.finfo(float).smallest_subnormal
    fixed = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 3 * tiny,
             np.finfo(float).tiny, np.finfo(float).max, 1 / 3, -2.5e-300, 1e22]
    bits = np.random.default_rng(18).integers(0, 2**64, count, dtype=np.uint64)
    return np.concatenate([fixed, bits.view(float)])


FRACTIONS = [Fraction(0), Fraction(1, 3), Fraction(-7, 9), Fraction(10**30, 7),
             Fraction(1, 10**320), Fraction(123456789012345678, 10**17)]


def test_writers_match_the_per_field_rendering(tmp_path):
    x = special_doubles(2000)
    y = np.roll(x, 1)
    ints = list(range(len(x)))
    path = tmp_path / "out.csv"

    def written(write, *args) -> bytes:
        write(path, *args)
        header, _, body = path.read_bytes().partition(b"\n")
        return body

    values = np.empty(len(x), complex)
    values.real, values.imag = x, y
    moduli = np.abs(values)
    with np.errstate(divide="ignore"):
        gammas = -2.0 * np.log(moduli)
    assert written(csvio.write_spectrum_csv, values) == reference_rows(
        [str(i)] + [sig(v, 17) for v in (z.real, z.imag, nu, g)]
        for i, (z, nu, g) in enumerate(zip(values, moduli, gammas))
    )
    assert written(csvio.write_cumulative_csv, x, y) == reference_rows(
        [sig(a), sig(b)] for a, b in zip(x, y)
    )
    hist = ModulusHistogram(lo=-0.0, hi=1.0, bin_width=1e-3, counts=x, density=y)
    assert written(csvio.write_histogram_csv, hist) == reference_rows(
        [sig(a), sig(b)] for a, b in zip(hist.left_edges, y)
    )
    rh = RescaledHistogram(lefts=x, rights=y, density=x)
    with np.errstate(invalid="ignore", over="ignore"):
        assert written(csvio.write_rescaled_csv, rh) == reference_rows(
            [sig(a), sig(b)] for a, b in zip(rh.midpoints, x)
        )
    qcs = FRACTIONS + list(x)
    points = [WidthPoint(dim=i, q_c=qc, sigma=s) for i, qc, s in zip(ints, qcs, y)]
    assert written(csvio.write_width_csv, points) == reference_rows(
        [str(p.dim), sig(p.q_c), sig(p.sigma)] for p in points
    )
    weyl = [WeylDataPoint(dim=2 + i, count=i) for i in ints[:50]]
    with np.errstate(divide="ignore"):
        assert written(csvio.write_weyl_csv, weyl) == reference_rows(
            [str(p.dim), str(p.count), sig(np.log10(p.dim)), sig(np.log10(p.count))]
            for p in weyl
        )
    rows = list(zip(qcs, reversed(qcs)))
    assert written(csvio.write_sweep_csv, Fraction(1, 3), 9, rows) == reference_rows(
        [sig(qc, 12), sig(Fraction(1, 3), 12), "9", sig(a, 12)] for qc, a in rows
    )
    series = SurvivalSeries(OpeningSpec(0.5, 0.1), tuple(qcs))
    assert written(csvio.write_series_csv, series) == reference_rows(
        [str(t), sig(a, 12)] for t, a in enumerate(qcs)
    )


def test_manifest_records_checksum(tmp_path):
    target = tmp_path / "data.csv"
    target.write_text("a,b\n1,2\n")
    man = csvio.write_manifest(target, {"alpha": 1, "beta": "x"})
    record = json.loads(man.read_text())
    assert record["sha256"] == csvio.sha256_file(target)
    assert record["parameters"] == {"alpha": 1, "beta": "x"}
    assert record["file"] == "data.csv"
    again = csvio.write_manifest(target, {"alpha": 1, "beta": "x"})
    assert again.read_bytes() == man.read_bytes()


def test_cache_key_canonicalizes_parameters():
    a = PropagatorSpec(64, OpeningSpec(0.1, 0.25))
    b = PropagatorSpec(64, OpeningSpec(Fraction(1, 10), Fraction(1, 4)))
    c = PropagatorSpec(64, OpeningSpec("0.1", "0.25"))
    assert cache_key(a) == cache_key(b) == cache_key(c)
    assert cache_key(a) != cache_key(PropagatorSpec(66, OpeningSpec(0.1, 0.25)))
    # the key is the kept mask: openings absorbing the same sites, and
    # mirror images q_c <-> 1 - q_c, share it
    d = PropagatorSpec(64, OpeningSpec("0.3", "0.1"))
    assert (d.kept_mask() == PropagatorSpec(64, OpeningSpec("0.301", "0.1")).kept_mask()).all()
    assert cache_key(d) == cache_key(PropagatorSpec(64, OpeningSpec("0.301", "0.1")))
    assert cache_key(d) == cache_key(PropagatorSpec(64, OpeningSpec("0.7", "0.1")))


@pytest.mark.parametrize(
    "dim, qc, dq, key",
    [
        (64, "0.3", "0.1", "a584ee6595d5e9e615e4a701636c9b96f6f645c789bb5fc1faf49fdeaf665a87"),
        # the mirror opening of the one above
        (64, "0.7", "0.1", "a584ee6595d5e9e615e4a701636c9b96f6f645c789bb5fc1faf49fdeaf665a87"),
        # a site on the closed edge 0.45, so the mask is asymmetric
        (50, "0.5", "0.1", "03c09e5d57f9356e2d8589f477c5a3a0247e102c03fde3daebf5d92c2c3f0d35"),
        (16, "0.5", "0", "9f75a76988736d9705313fcb22fdec62840d3ce547e3865c62a691e14e9bc58b"),
        (16, "0.5", "1", "b7343d1fe4e1fdad36767cba312a1585ce156547462294827598660cd8579024"),
        # wraps through q = 0
        (16, "0", "0.2", "6888d535dfe5728872ec9ce400042d480a4a369e6ec77cdeaceb9cc76476813f"),
        (1266, "0.5", "0.1", "c59f48f8d41967a4aed3fc4bda25d87d4bc1867769399fad1d48c28b3c38f5da"),
    ],
)
def test_cache_key_is_stable(dim, qc, dq, key, monkeypatch):
    # the key's layout: these are the digests of solver version 3, and only
    # the version field may move them (the current ones are pinned below)
    monkeypatch.setattr(cache_module, "SOLVER_VERSION", 3)
    cache_key.cache_clear()
    try:
        assert cache_key(PropagatorSpec(dim, OpeningSpec(qc, dq))) == key
    finally:
        cache_key.cache_clear()


@pytest.mark.parametrize(
    "dim, qc, dq, key",
    [
        (64, "0.3", "0.1", "33a1a4e4f9057b5c79e49af8e646d8672ae693ac78998b88e9e5a3d140664a0e"),
        (64, "0.7", "0.1", "33a1a4e4f9057b5c79e49af8e646d8672ae693ac78998b88e9e5a3d140664a0e"),
        (50, "0.5", "0.1", "ad4210f781d7ccbc58abd81f8ecd707d68d6bb396bf8e13cfe7db90b9df6b232"),
        (16, "0.5", "0", "ea1cf50a851159c5f9356ca6f5d7c0dfa3d242f66e2be6b890e6806e1529de17"),
        (16, "0.5", "1", "606f1b08ec6004fbf6c68b8352514aa0bf4f64c8b9432cd2cd6361184036f289"),
        (16, "0", "0.2", "d1863f0f0cc2489a11db4a9ab58af6cf83a9e80c28b4ab6fe51840b3efcdfb4e"),
        (1266, "0.5", "0.1", "5465f08324275a977e1d4cf4bd27861d5be37cad65b70e90784f7294b5855868"),
    ],
)
def test_cache_key_names_solver_version_4(dim, qc, dq, key, monkeypatch):
    # version 4 solves every block on one BLAS thread; entries of version 3,
    # whose last bits depended on the thread count, are never read again
    monkeypatch.setattr(cache_module, "SOLVER_VERSION", 4)
    cache_key.cache_clear()
    try:
        assert cache_key(PropagatorSpec(dim, OpeningSpec(qc, dq))) == key
    finally:
        cache_key.cache_clear()


@pytest.mark.parametrize(
    "dim, qc, dq, key",
    [
        (64, "0.3", "0.1", "6d5b4d5a69c69cfc59e576f6526594687ff75aa5c7c8055b461662724ae7a524"),
        (64, "0.7", "0.1", "6d5b4d5a69c69cfc59e576f6526594687ff75aa5c7c8055b461662724ae7a524"),
        (50, "0.5", "0.1", "c373dad1b55a749d115e7c3baf38637c926b01aab4e2b1c9ce0582ed577bae13"),
        (16, "0.5", "0", "bd8881c7d04ba8dda177c2014166cefd11ea23085a0efed88ee4773fa57b49eb"),
        (16, "0.5", "1", "e1ecc05f4af40911030be0c7465760ada9a5e634ea7bda9939e55722ca6de2cd"),
        (16, "0", "0.2", "6f51c4c33da66bc1802f97c3d3127eebd81ad758ec8eff465c282b02953b95c3"),
        (1266, "0.5", "0.1", "7fee3e3775761e670d5f777f681a0526875ab7efc4e651a095df60e8d93f201c"),
    ],
)
def test_cache_key_names_solver_version_5(dim, qc, dq, key, monkeypatch):
    # version 5 stores raw complex128 payloads; CSV payloads of version 4
    # are never read again
    monkeypatch.setattr(cache_module, "SOLVER_VERSION", 5)
    cache_key.cache_clear()
    try:
        assert cache_key(PropagatorSpec(dim, OpeningSpec(qc, dq))) == key
    finally:
        cache_key.cache_clear()


@pytest.mark.parametrize(
    "dim, qc, dq, key",
    [
        (64, "0.3", "0.1", "268d3c4349e953bea8d851d8e776e70d4cbb35468afd5dd525d04134a4ca9cf1"),
        (64, "0.7", "0.1", "268d3c4349e953bea8d851d8e776e70d4cbb35468afd5dd525d04134a4ca9cf1"),
        (50, "0.5", "0.1", "147ebd7ee453cc4899e31f51e407326916c5609eee5db34b6a8dd09c22225aa4"),
        (16, "0.5", "0", "7d8b39e5e9de6b513db85300b1b89771a947a50be37e067336dd75b9c415186b"),
        (16, "0.5", "1", "76d4af3605e59f3f431c1dd6eb4550cee4534a91085152b9b0ccea9bd27ae4e7"),
        (16, "0", "0.2", "077c48f608dfd6d517ac8ccbc94bc31dd875aa96e55928463ee0ae5e137a00fc"),
        (1266, "0.5", "0.1", "3fc89264b1acdfca8b458974746503b762de7c4a7565b240525812df3540a8eb"),
    ],
)
def test_cache_key_names_solver_version_6(dim, qc, dq, key, monkeypatch):
    # version 6 heads each entry with its digest and drops the manifest;
    # entries of version 5 are never read again
    monkeypatch.setattr(cache_module, "SOLVER_VERSION", 6)
    cache_key.cache_clear()
    try:
        assert cache_key(PropagatorSpec(dim, OpeningSpec(qc, dq))) == key
    finally:
        cache_key.cache_clear()


@pytest.mark.parametrize(
    "dim, qc, dq, key",
    [
        (64, "0.3", "0.1", "49ec0b1d6c95584f3f94ff504dbd1faa2cae646a425c4c725228b2abf76c1246"),
        (64, "0.7", "0.1", "49ec0b1d6c95584f3f94ff504dbd1faa2cae646a425c4c725228b2abf76c1246"),
        (50, "0.5", "0.1", "692e35b4b71dc76f37d356cb5353eb58712a1d7b0ace174edb0fa1fe1f04797d"),
        (16, "0.5", "0", "70940e03f78d04af0d2294a0dad4e8f9e412231194b71cf40d4dc8ace0cb5078"),
        (16, "0.5", "1", "1855b293923ad209f5cfe44ac69e3ae954558affe9fe81d6909977a8f17bec94"),
        (16, "0", "0.2", "121d1f5d479bb689982c01d97b9c112c55f59575004633b8cba8b0bbe169c70b"),
        (1266, "0.5", "0.1", "27d7d0df38515698921a9f1de00112cb77f8b5996991f59ef10b443e79e871d0"),
    ],
)
def test_cache_key_names_solver_version_7(dim, qc, dq, key):
    # version 7 solves each block on its kept sites only, which moves the
    # last bits; entries of version 6 are never read again, and existing
    # caches stay readable only while these digests hold
    assert cache_key(PropagatorSpec(dim, OpeningSpec(qc, dq))) == key


def test_cache_roundtrip(tmp_path):
    # miss and hit both return exactly the solver's values, for a full
    # solve and for a parity-split one
    for dim, qc in ((16, "0.3"), (256, "0.5")):
        spec = PropagatorSpec(dim, OpeningSpec(qc, "0.1"))
        direct = resonance_set(spec).values
        rs, hit = SpectrumCache(tmp_path).get_or_compute(spec)
        assert not hit
        assert (rs.values == direct).all()
        rs2, hit2 = SpectrumCache(tmp_path).get_or_compute(spec)
        assert hit2
        assert (rs2.values == direct).all()


def test_get_or_compute_is_solve_for_one_spec(tmp_path):
    spec = PropagatorSpec(16, OpeningSpec("0.3", "0.1"))
    solved, _ = SpectrumCache(tmp_path / "solve").solve([spec])
    cache = SpectrumCache(tmp_path / "one")
    for hit in (False, True):
        rs, was_hit = cache.get_or_compute(spec)
        assert was_hit is hit and rs.spec == spec
        assert rs.values.tobytes() == solved[spec].values.tobytes()


def test_solve_takes_a_generator_as_a_list(tmp_path):
    dims = (16, 18)
    listed = SpectrumCache(tmp_path / "list").solve(
        [PropagatorSpec(n, OpeningSpec("0.3", "0.1")) for n in dims])
    generated = SpectrumCache(tmp_path / "generator").solve(
        PropagatorSpec(n, OpeningSpec("0.3", "0.1")) for n in dims)
    assert list(generated[0]) == list(listed[0]) and generated[1] == listed[1] == set()
    assert all(generated[0][spec].values.tobytes() == rs.values.tobytes()
               for spec, rs in listed[0].items())


def test_cache_recompute_bitwise_identical(tmp_path):
    spec = PropagatorSpec(24, OpeningSpec(0.5, 0.2))
    first = SpectrumCache(tmp_path / "a")
    second = SpectrumCache(tmp_path / "b")
    first.get_or_compute(spec)
    second.get_or_compute(spec)
    assert first.entry_path(spec).read_bytes() == second.entry_path(spec).read_bytes()


def test_cache_directory_is_made_by_the_first_store(tmp_path):
    # opening a cache and asking it for an entry leave nothing on disk
    root = tmp_path / "c"
    cache = SpectrumCache(root)
    spec = PropagatorSpec(16, OpeningSpec(0.3, 0.1))
    assert not cache.has(spec)
    assert not root.exists()
    cache.store(spec, resonance_set(spec))
    assert list(root.iterdir()) == [cache.entry_path(spec)]
    assert cache.entry_path(spec).suffix == ".c16"
    assert (cache.load(spec).values == resonance_set(spec).values).all()


def test_cache_detects_corruption(tmp_path):
    cache = SpectrumCache(tmp_path)
    spec = PropagatorSpec(16, OpeningSpec(0.3, 0.1))
    cache.get_or_compute(spec)
    entry = cache.entry_path(spec)
    committed = entry.read_bytes()
    # one flipped bit in the digest, in the first value, in the last one,
    # and a file shorter than the digest itself
    flipped = []
    for offset in (5, 37, len(committed) - 1):
        data = bytearray(committed)
        data[offset] ^= 0x01
        flipped.append(bytes(data))
    for data in flipped + [committed[:31], b""]:
        entry.write_bytes(data)
        with pytest.raises(CacheError, match="checksum mismatch"):
            cache.load(spec)


def forge_payload(cache: SpectrumCache, spec, values: bytes) -> None:
    """Replace spec's values by these bytes under their own digest."""
    cache.entry_path(spec).write_bytes(hashlib.sha256(values).digest() + values)


def entry_values(cache: SpectrumCache, spec) -> bytes:
    return cache.entry_path(spec).read_bytes()[32:]


def test_cache_trace_check_catches_consistent_tampering(tmp_path):
    cache = SpectrumCache(tmp_path)
    spec = PropagatorSpec(16, OpeningSpec(0.3, 0.1))
    rs, _ = cache.get_or_compute(spec)
    tampered = rs.values.copy()
    tampered[0] = 0.9 + 0.1j
    forge_payload(cache, spec, tampered.astype("<c16").tobytes())
    with pytest.raises(CacheError, match="trace"):
        cache.load(spec)


def test_cache_payload_holds_the_solved_bits(tmp_path):
    cache = SpectrumCache(tmp_path)
    spec = PropagatorSpec(16, OpeningSpec(0.3, 0.1))
    values = resonance_set(spec).values
    cache.store(spec, resonance_set(spec))
    data = cache.entry_path(spec).read_bytes()
    raw = values.astype("<c16").tobytes()
    assert data == hashlib.sha256(raw).digest() + raw and len(data) == 32 + 16 * 16


RESIZES = [
    (lambda data: data[:-16], "15"),  # truncated by one mode
    (lambda data: data[:-5], "15.6875"),  # not a whole number of modes
    (lambda data: data + bytes(16), "17"),  # one mode too many
]


@pytest.mark.parametrize("resize, modes", RESIZES)
def test_cache_rejects_a_payload_of_the_wrong_length(tmp_path, resize, modes):
    cache = SpectrumCache(tmp_path)
    spec = PropagatorSpec(16, OpeningSpec(0.3, 0.1))
    cache.get_or_compute(spec)
    forge_payload(cache, spec, resize(entry_values(cache, spec)))
    with pytest.raises(CacheError, match=f"holds {modes} modes, expected 16$"):
        cache.load(spec)


def test_cache_dimension_mismatch(tmp_path):
    cache = SpectrumCache(tmp_path)
    spec16 = PropagatorSpec(16, OpeningSpec(0.3, 0.1))
    spec18 = PropagatorSpec(18, OpeningSpec(0.3, 0.1))
    cache.get_or_compute(spec16)
    cache.get_or_compute(spec18)
    # graft the 16-site values, under their own digest, onto the 18-site key
    forge_payload(cache, spec18, entry_values(cache, spec16))
    with pytest.raises(CacheError, match="holds 16 modes, expected 18$"):
        cache.load(spec18)


def test_cache_store_survives_reentrant_writer(tmp_path, monkeypatch):
    # a second store of the same spec runs while the first is mid-write,
    # as two workers sharing a cache directory can; both must commit
    cache = SpectrumCache(tmp_path)
    spec = PropagatorSpec(16, OpeningSpec(0.3, 0.1))
    rs = resonance_set(spec)
    staged_entry = cache.entry_path(spec).name
    write_bytes = Path.write_bytes
    reentered = []

    def write_then_reenter(path, data):
        written = write_bytes(path, data)
        if path.name.startswith(staged_entry) and not reentered:
            reentered.append(path)
            cache.store(spec, rs)
        return written

    monkeypatch.setattr(Path, "write_bytes", write_then_reenter)
    cache.store(spec, rs)
    assert reentered
    assert [p.name for p in tmp_path.iterdir()] == [cache.entry_path(spec).name]
    assert (cache.load(spec).values == resonance_set(spec).values).all()


def _last_bit_changed(rs: ResonanceSet) -> ResonanceSet:
    values = rs.values.copy()
    values[0] = complex(np.nextafter(values[0].real, 2.0), values[0].imag)
    return ResonanceSet(spec=rs.spec, values=values)


def test_cache_store_keeps_the_committed_payload(tmp_path):
    # a later store, of other last bits, never changes a committed entry
    cache = SpectrumCache(tmp_path)
    spec = PropagatorSpec(16, OpeningSpec(0.3, 0.1))
    first = resonance_set(spec)
    cache.store(spec, first)
    data = cache.entry_path(spec).read_bytes()
    cache.store(spec, _last_bit_changed(first))
    assert cache.entry_path(spec).read_bytes() == data
    assert (cache.load(spec).values == first.values).all()
    assert [p.name for p in tmp_path.iterdir()] == [cache.entry_path(spec).name]
