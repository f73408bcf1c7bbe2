"""CSV schemas, manifests, rasters and the spectrum cache contract."""

import json
from fractions import Fraction

import numpy as np
import pytest

from openbaker import cache as cache_module
from openbaker import csvio
from openbaker.cache import CacheError, SpectrumCache, cache_key
from openbaker.classical import OpeningSpec
from openbaker.propagator import PropagatorSpec
from openbaker.spectra import ResonanceSet, resonance_set
from openbaker.stats import synthetic_power_law_points
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


def test_weyl_csv_schema(tmp_path):
    path = tmp_path / "weyl.csv"
    csvio.write_weyl_csv(path, synthetic_power_law_points(n_points=4)[:2])
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
def test_cache_key_names_solver_version_4(dim, qc, dq, key):
    # version 4 solves every block on one BLAS thread; entries of version 3,
    # whose last bits depended on the thread count, are never read again,
    # and existing caches stay readable only while these digests hold
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


def test_cache_recompute_bitwise_identical(tmp_path):
    spec = PropagatorSpec(24, OpeningSpec(0.5, 0.2))
    first = SpectrumCache(tmp_path / "a")
    second = SpectrumCache(tmp_path / "b")
    first.get_or_compute(spec)
    second.get_or_compute(spec)
    assert (
        first.payload_path(spec).read_bytes() == second.payload_path(spec).read_bytes()
    )


def test_cache_detects_corruption(tmp_path):
    cache = SpectrumCache(tmp_path)
    spec = PropagatorSpec(16, OpeningSpec(0.3, 0.1))
    cache.get_or_compute(spec)
    payload = cache.payload_path(spec)
    data = payload.read_bytes()
    payload.write_bytes(data.replace(b"index", b"indEx", 1))
    with pytest.raises(CacheError, match="checksum"):
        cache.load(spec)


def test_cache_trace_check_catches_consistent_tampering(tmp_path):
    cache = SpectrumCache(tmp_path)
    spec = PropagatorSpec(16, OpeningSpec(0.3, 0.1))
    rs, _ = cache.get_or_compute(spec)
    tampered = rs.values.copy()
    tampered[0] = 0.9 + 0.1j
    payload = cache.payload_path(spec)
    csvio.write_spectrum_csv(payload, tampered)
    manifest = json.loads(cache.manifest_path(spec).read_text())
    manifest["sha256"] = csvio.sha256_file(payload)
    cache.manifest_path(spec).write_text(json.dumps(manifest))
    with pytest.raises(CacheError, match="trace"):
        cache.load(spec)


def test_cache_dimension_mismatch(tmp_path):
    cache = SpectrumCache(tmp_path)
    spec16 = PropagatorSpec(16, OpeningSpec(0.3, 0.1))
    spec18 = PropagatorSpec(18, OpeningSpec(0.3, 0.1))
    cache.get_or_compute(spec16)
    cache.get_or_compute(spec18)
    # graft the wrong payload under the 18-site key
    cache.payload_path(spec18).write_bytes(cache.payload_path(spec16).read_bytes())
    manifest = json.loads(cache.manifest_path(spec18).read_text())
    manifest["sha256"] = csvio.sha256_file(cache.payload_path(spec18))
    cache.manifest_path(spec18).write_text(json.dumps(manifest))
    with pytest.raises(CacheError, match="modes"):
        cache.load(spec18)


def test_cache_store_survives_reentrant_writer(tmp_path, monkeypatch):
    # a second store of the same spec runs while the first is mid-write,
    # as two workers sharing a cache directory can; both must commit
    cache = SpectrumCache(tmp_path)
    spec = PropagatorSpec(16, OpeningSpec(0.3, 0.1))
    rs = resonance_set(spec)
    write = cache_module.write_spectrum_csv
    reentered = []

    def write_then_reenter(path, values):
        write(path, values)
        if not reentered:
            reentered.append(path)
            cache.store(spec, rs)

    monkeypatch.setattr(cache_module, "write_spectrum_csv", write_then_reenter)
    cache.store(spec, rs)
    assert reentered
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [cache.payload_path(spec).name, cache.manifest_path(spec).name]
    )
    assert (cache.load(spec).values == resonance_set(spec).values).all()


def _last_bit_changed(rs: ResonanceSet) -> ResonanceSet:
    values = rs.values.copy()
    values[0] = complex(np.nextafter(values[0].real, 2.0), values[0].imag)
    return ResonanceSet(spec=rs.spec, values=values)


def test_cache_store_keeps_the_committed_payload(tmp_path):
    cache = SpectrumCache(tmp_path)
    spec = PropagatorSpec(16, OpeningSpec(0.3, 0.1))
    first = resonance_set(spec)
    cache.store(spec, first)
    data = cache.payload_path(spec).read_bytes()
    cache.store(spec, _last_bit_changed(first))
    assert cache.payload_path(spec).read_bytes() == data
    assert (cache.load(spec).values == first.values).all()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [cache.payload_path(spec).name, cache.manifest_path(spec).name]
    )
    manifest = json.loads(cache.manifest_path(spec).read_text())
    assert sorted(manifest) == ["created", "dim", "sha256", "solver_version", "tool_version"]


def test_cache_load_survives_a_store_between_manifest_and_payload(tmp_path, monkeypatch):
    # a store of different last bits lands after load has read the
    # manifest and before it hashes the payload, as a second process
    # sharing the cache directory can; load must still see one store
    cache = SpectrumCache(tmp_path)
    spec = PropagatorSpec(16, OpeningSpec(0.3, 0.1))
    first = resonance_set(spec)
    cache.store(spec, first)
    sha256_file = cache_module.sha256_file
    reentered = []

    def store_then_hash(path):
        if not reentered:
            reentered.append(path)
            cache.store(spec, _last_bit_changed(first))
        return sha256_file(path)

    monkeypatch.setattr(cache_module, "sha256_file", store_then_hash)
    rs = cache.load(spec)
    assert reentered
    assert (rs.values == first.values).all()
