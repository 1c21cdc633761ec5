"""The compiled table writer and parser against their references: repr
text byte for byte, and numpy.loadtxt arrays bit for bit."""

import contextlib
import gc
import io
import json
import math
import os
import shutil
import struct
import sys
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from darkfocus import (
    BeamParams,
    EscapeReport,
    GridSpec,
    Trajectory,
    _compiled,
    _text,
    dynamics,
    estimate_psd,
    load_trajectory,
    render_intensity_grid,
    sample_force_grid,
    save_trajectory,
)
from darkfocus.cli import main

pytestmark = pytest.mark.skipif(shutil.which(_compiled.COMPILER) is None,
                                reason="no C compiler to build the compiled I/O")

HEADER = "# dt=0.001\n# seed=7\n# provenance=simulated\nt x y z\n"


@pytest.fixture(scope="module")
def library():
    lib = _compiled.load()
    assert lib is not None
    return lib


def assert_rows_match(library, rows):
    assert _text._compiled_rows(library, rows) == _text._python_rows(rows)


def trajectory_rows(positions, start=0, dt=2e-5):
    """The t x y z rows save_trajectory writes; t is k * dt for row k."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    rows = dynamics._timed_rows(positions, start, dt)
    times = [k * dt for k in range(start, start + len(positions))]
    assert rows[:, 0].tobytes() == np.array(times).tobytes()
    return rows


def column_blocks(values):
    """values as blocks of 1, 2 and 6 columns, the tail cut to whole rows."""
    return [values[: len(values) // m * m].reshape(-1, m) for m in (1, 2, 6)]


def edge_values():
    values = [0.0, 5e-324, struct.unpack("<d", struct.pack("<Q", (1 << 52) - 1))[0],
              1e-4, np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e16, 0.0),
              sys.float_info.max]
    values += [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    return np.array(values + [-v for v in values])


class TestWriter:
    def test_edge_cases(self, library):
        values = edge_values()
        assert_rows_match(library, trajectory_rows(
            np.resize(values, (len(values) + 2) // 3 * 3)))
        assert_rows_match(library, trajectory_rows(
            np.resize(values[1:], (len(values) + 2) // 3 * 3)))
        for rows in column_blocks(values) + column_blocks(values[1:]):
            assert_rows_match(library, rows)

    def test_random_bit_patterns(self, library):
        bits = np.random.default_rng(20240817).integers(0, 2**64, size=100_002,
                                                        dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        finite = values[np.isfinite(values)]
        assert_rows_match(library, trajectory_rows(finite[: len(finite) // 3 * 3]))
        for rows in column_blocks(finite):
            assert_rows_match(library, rows)

    def test_digit_counts_and_subnormals(self, library):
        # every count of shortest digits, 1 to 17, on both sides of each
        # power of ten, and random subnormal bit patterns
        rng = np.random.default_rng(20261020)
        powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
        mantissas = [rng.integers(10 ** (d - 1), 10**d, 400) for d in range(1, 18)]
        decimals = [float(f"{m}e{e}") for digits in mantissas for m, e in
                    zip(digits.tolist(), rng.integers(-300, 290, len(digits)).tolist())]
        subnormal = rng.integers(1, 1 << 52, 30_000, dtype=np.uint64).view(np.float64)
        values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                                 decimals, subnormal])
        values = np.concatenate([values, -values])
        assert {len(repr(v).lstrip("-").split("e")[0].replace(".", "").strip("0"))
                for v in decimals} == set(range(1, 18))
        for rows in column_blocks(values):
            assert_rows_match(library, rows)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3,
                    max_size=60).map(lambda v: v[: len(v) // 3 * 3]),
           st.integers(0, 2**53), st.floats(min_value=5e-324, allow_infinity=False))
    def test_finite_floats(self, library, values, start, dt):
        assert_rows_match(library, trajectory_rows(values, start, dt))

    @pytest.mark.parametrize("dt", [math.inf, sys.float_info.max, 5e-324])
    def test_time_column_extremes(self, library, dt):
        # k * dt can be inf, nan (0 * inf) or a subnormal; repr spells each
        assert_rows_match(library, trajectory_rows(np.zeros((4, 3)), start=0, dt=dt))
        assert_rows_match(library, trajectory_rows(np.zeros((4, 3)), start=2**62, dt=dt))


def load_both(path, monkeypatch):
    """load_trajectory on the compiled path and on numpy.loadtxt: both
    results, or the ValueError each raised."""
    results = []
    for reference in (False, True):
        with monkeypatch.context() as m:
            if reference:
                m.setattr(_compiled, "load", lambda: None)
            try:
                results.append(load_trajectory(path))
            except ValueError as exc:
                results.append(exc)
    return results


def assert_same_load(path, monkeypatch):
    compiled, reference = load_both(path, monkeypatch)
    if isinstance(reference, ValueError):
        assert isinstance(compiled, ValueError), compiled
        return
    assert not isinstance(compiled, ValueError), compiled
    assert compiled.dt == reference.dt and compiled.seed == reference.seed
    assert compiled.positions.shape == reference.positions.shape
    assert compiled.positions.tobytes() == reference.positions.tobytes()
    assert compiled.escape == reference.escape


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def trajectory_files(draw):
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(4, 6))
    comma = draw(st.booleans())
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for _ in range(n_rows):
        digits = draw(st.integers(0, 17))
        values = draw(st.lists(finite, min_size=n_cols, max_size=n_cols))
        tokens = [repr(v) if digits == 0 else f"{v:.{digits}g}" for v in values]
        if comma:
            sep = draw(st.sampled_from([",", ", ", " , ", "\t,"]))
        else:
            sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        line = sep.join(tokens)
        if draw(st.integers(0, 9)) == 0:
            line += " # trailing comment"
        lines.append(line)
        extra = draw(st.integers(0, 9))
        if extra == 0:
            lines.append("")
        elif extra == 1:
            lines.append("# a comment line")
        elif extra == 2 and not comma:
            lines.append("  \t")
    text = HEADER + newline.join(lines) + (newline if draw(st.booleans()) else "")
    if draw(st.integers(0, 4)) == 0:
        text = text[: len(HEADER) + draw(st.integers(0, len(text) - len(HEADER)))]
    return text


class TestParser:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(trajectory_files())
    def test_generated_files_match_loadtxt(self, tmp_path, monkeypatch, text):
        path = tmp_path / "generated.txt"
        path.write_bytes(text.encode())
        assert_same_load(path, monkeypatch)

    @pytest.mark.parametrize("body", [
        "0.0 1e-07 -2.5e-08 3.0\n1.0 2 3 4\n",
        "0.0,1e-07, -2.5e-08 ,3.0\r\n1.0,2,3,4\r\n",
        "0 1 2 3 4 5\n\n  \n1 2 3 4 5 6",
        "5e-324 -0.0 .5 5.\n",
        "1 00000000000000000000123.25 0.000000000000000000000000001 1.7976931348623159e308\n",
        "1 2.4703282292062328e-324 1e-400 -1e400\n",
        "1.5\n-0.0\n\n5e-324\n1.7976931348623157e308\n",
        "1e-300,-2,3.25,4,5,6\r\n7,8,9,10,11,12e3\r\n",
    ])
    def test_plain_rows_take_the_compiled_path(self, library, tmp_path, monkeypatch, body):
        path = tmp_path / "plain.txt"
        path.write_bytes((HEADER + body).encode())
        expected = np.loadtxt(path, delimiter="," if "," in body else None,
                              skiprows=HEADER.count("\n"), ndmin=2)
        rows = _text._compiled_read(library, path, HEADER.count("\n"), "," in body,
                                    expected.shape[1])
        assert rows is not None
        assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()
        if np.all(np.isfinite(rows)):
            assert_same_load(path, monkeypatch)

    @pytest.mark.parametrize("body", [
        "1 2 3 4\n# comment\n5 6 7 8\n",
        "1 2 3 4\r5 6 7 8\n",
        "1 2 3 nan\n",
        "1 2 3 0x1p3\n",
        "1 2 3 4\n1 2 3\n",
        "1 2 3 4\n5 6 7 8 9\n",
        "1 2 3\n",
        "1 2 3 4,\n",
        "1 2 3 1e\n",
        pytest.param("1 2 3 0." + "0" * 100_001 + "1e100005\n", id="six-digit-exponent"),
    ])
    def test_other_text_goes_to_loadtxt(self, library, tmp_path, monkeypatch, body):
        path = tmp_path / "other.txt"
        path.write_bytes((HEADER + body).encode())
        assert _text._compiled_read(library, path, HEADER.count("\n"), False, 4) is None
        assert_same_load(path, monkeypatch)

    def test_rows_cross_read_blocks(self, library, tmp_path, monkeypatch):
        monkeypatch.setattr(_text, "_READ_BYTES", 64)
        rng = np.random.default_rng(5)
        traj = Trajectory(dt=1e-3, positions=rng.standard_normal((200, 3)))
        path = tmp_path / "blocks.txt"
        save_trajectory(traj, path)
        assert load_trajectory(path).positions.tobytes() == traj.positions.tobytes()
        assert_same_load(path, monkeypatch)
        # a line longer than a block goes to the reference reader
        path.write_text(HEADER + " ".join(["1.0"] * 40) + "\n")
        assert _text._compiled_read(library, path, HEADER.count("\n"), False, 40) is None

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.binary(max_size=400))
    @example(b",")
    def test_random_bytes_never_crash(self, tmp_path, monkeypatch, junk):
        path = tmp_path / "junk.txt"
        path.write_bytes(HEADER.encode() + junk)
        assert_same_load(path, monkeypatch)
        config = tmp_path / "psd.json"
        config.write_text(json.dumps({"analysis": {"trajectory": str(path)}}))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["psd", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in stderr.getvalue()


def read_both(path, monkeypatch):
    """read_table on the compiled path and on numpy.loadtxt: each rows
    array, or the type and message of the error each raised."""
    results = []
    for reference in (False, True):
        with monkeypatch.context() as m:
            if reference:
                m.setattr(_compiled, "load", lambda: None)
            try:
                results.append(_text.read_table(path)[1])
            except ValueError as exc:
                results.append((type(exc), str(exc)))
    return results


ROW_LINES = [f"{k} {k}.5 -{k}e-7 {k % 3}\n" for k in range(24)]
ROWS = "".join(ROW_LINES)
TABLE_BODIES = {
    # the blank lines hold the middle byte, where two pieces are cut
    "blank lines at a cut": "".join(ROW_LINES[:12]) + "\n \n\n\t\n" * 8
                            + "".join(ROW_LINES[12:]),
    "crlf": ROWS.replace("\n", "\r\n"),
    "comma rows": ROWS.replace(" ", ", "),
    "no trailing newline": ROWS.rstrip("\n"),
    "smaller than a block": ROWS[:42],
    "fewer rows than pieces": "1.5 2.5 3.5 4.5\n" + "\n" * 60,
    "nan in the last piece": ROWS + "1 2 3 nan\n",
    "ragged row in the last piece": ROWS + "1 2 3\n",
}


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("body", sorted(TABLE_BODIES))
def test_read_table_does_not_depend_on_width(library, tmp_path, monkeypatch, body, width):
    # the data is cut into one piece per _READ_BYTES up to width pieces,
    # each parsed on its own thread into its own rows: loadtxt's array or
    # error whatever the pieces
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(width)))
    path = tmp_path / "table.txt"
    path.write_bytes((HEADER + TABLE_BODIES[body]).encode())
    pieces = []
    parse_rows = _text._parse_rows

    def parsed(fh, start, stop, *args):
        pieces.append((start, stop))
        return parse_rows(fh, start, stop, *args)

    monkeypatch.setattr(_text, "_parse_rows", parsed)
    for read_bytes in (32, 64, 1 << 20):
        monkeypatch.setattr(_text, "_READ_BYTES", read_bytes)
        pieces.clear()
        rows = _text._compiled_read(library, path, HEADER.count("\n"),
                                    "," in TABLE_BODIES[body], 4)
        if read_bytes == 32:
            assert len(pieces) == width
        elif read_bytes == 1 << 20:
            assert len(pieces) == 1
        assert (rows is None) == body.endswith("last piece")
        compiled, reference = read_both(path, monkeypatch)
        if isinstance(reference, tuple):
            assert compiled == reference
        else:
            assert compiled.shape == reference.shape
            assert compiled.tobytes() == reference.tobytes()


def test_read_table_stress_more_pieces_than_cores(library, tmp_path, monkeypatch):
    # eight threads write disjoint row ranges of one array, switching often
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(_text, "_READ_BYTES", 4096)
    rng = np.random.default_rng(11)
    traj = Trajectory(dt=1e-3, positions=rng.standard_normal((20_000, 3)))
    path = tmp_path / "stress.txt"
    save_trajectory(traj, path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert load_trajectory(path).positions.tobytes() == traj.positions.tobytes()
    finally:
        sys.setswitchinterval(interval)


def saved_body():
    rng = np.random.default_rng(38)
    traj = Trajectory(dt=2e-5, positions=rng.standard_normal((300, 3)) * 1e-7)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "body.txt")
        _text.write_table(path, dynamics._timed_rows(traj.positions, 0, traj.dt))
        with open(path) as fh:
            return fh.read()


LOAD_FILES = {
    "darkfocus": HEADER + saved_body(),
    "pixels": "# dt=0.0667\n# meters_per_pixel=6.5e-8\nt x y z\n"
              + "".join(f"{k * 0.0667} {k}.25 {2 * k} -{k % 7}\n" for k in range(500)),
    "pixels without dt": "t x y z\n" + "".join(f"{k * 0.25} {k} {k}.5 {k % 3}\n"
                                               for k in range(500)),
    "crlf": HEADER + saved_body().replace("\n", "\r\n"),
    "commas": HEADER + saved_body().replace(" ", ", "),
    "blank lines": HEADER + saved_body().replace("\n", "\n\n  \n", 40),
    "five columns": HEADER + "".join(f"{k * 1e-3} {k}e-9 -{k}.5e-8 {k % 5} {k * 7}\n"
                                     for k in range(500)),
    "six columns, commas": HEADER + "".join(f"{k * 1e-3},{k}e-9,-{k}.5e-8,{k % 5},1,2\n"
                                            for k in range(500)),
}


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("name", sorted(LOAD_FILES))
def test_loaded_positions_are_the_loadtxt_columns(tmp_path, monkeypatch, name, width):
    # x, y, z are parsed straight into the array the Trajectory keeps and
    # scaled there: C-contiguous, with the bits of loadtxt's columns 1-3
    # times meters_per_pixel, on the compiled path (in pieces) and the reference
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(width)))
    monkeypatch.setattr(_text, "_READ_BYTES", 4096)
    path = tmp_path / "load.txt"
    text = LOAD_FILES[name]
    path.write_bytes(text.encode())
    header = 4 if text.startswith(HEADER) else text.count("#") + 1
    table = np.loadtxt(path, delimiter="," if "," in text else None, skiprows=header, ndmin=2)
    scale = 6.5e-8 if "meters_per_pixel" in text else 1.0
    for reference in (False, True):
        with monkeypatch.context() as m:
            if reference:
                m.setattr(_compiled, "load", lambda: None)
            for mpp, factor in ((None, scale), (3.7e-7, 3.7e-7)):
                positions = load_trajectory(path, meters_per_pixel=mpp).positions
                assert positions.flags.c_contiguous, reference
                assert positions.shape == (len(table), 3), reference
                assert positions.tobytes() == (table[:, 1:4] * factor).tobytes(), reference


def test_split_read_routes_the_time_column(library, tmp_path):
    # df_parse_rows writes column 0 to its own column and columns 1-3 to the
    # (n, 3) array; the columns after them are read and dropped, a short row
    # is still refused
    path = tmp_path / "split.txt"
    path.write_bytes((HEADER + LOAD_FILES["five columns"].removeprefix(HEADER)).encode())
    table = np.loadtxt(path, skiprows=4)
    times, positions = _text._compiled_read(library, path, 4, False, 5, split=3)
    assert times.tobytes() == table[:, 0].tobytes()
    assert positions.tobytes() == table[:, 1:4].tobytes()
    assert _text._compiled_read(library, path, 4, False, 5).tobytes() == table.tobytes()
    path.write_bytes((HEADER + "1 2 3 4 5\n1 2 3 4\n").encode())
    assert _text._compiled_read(library, path, 4, False, 5, split=3) is None
    # a table of no more than split columns comes back whole
    path.write_bytes((HEADER + "1 2 3\n4 5 6\n").encode())
    header, rows = _text.read_table(path, split=3)
    assert rows.shape == (2, 3)
    with pytest.raises(ValueError, match="expected columns t x y z"):
        load_trajectory(path)


def traced_peak(call):
    """The result of call() and the most memory it held at once above what
    was traced before it, under tracemalloc, which numpy reports its
    buffers to."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


LOAD_ROWS = 400_000


@pytest.fixture(scope="module")
def long_recording(tmp_path_factory):
    rng = np.random.default_rng(3838)
    traj = Trajectory(dt=2e-5, positions=rng.standard_normal((LOAD_ROWS, 3)) * 1e-7, seed=3)
    path = tmp_path_factory.mktemp("long") / "long.txt"
    save_trajectory(traj, path)
    return traj, path


def test_load_holds_the_positions_and_times_only(library, long_recording, monkeypatch):
    # the parsed (n, 4) table and its scaled (n, 3) copy are gone: a load
    # holds the time column, the positions and a read buffer per piece
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    traj, path = long_recording
    loaded, peak = traced_peak(lambda: load_trajectory(path))
    assert loaded.positions.tobytes() == traj.positions.tobytes()
    assert peak <= 5 * 8 * LOAD_ROWS, peak / (8 * LOAD_ROWS)


def test_blank_lines_are_closed_in_place(library, long_recording, tmp_path, monkeypatch):
    # blank lines leave the first piece short; its gap is closed through
    # one-dimensional views, so the rows after it move without a temporary
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    traj, path = long_recording
    lines = path.read_bytes().split(b"\n")
    gapped = tmp_path / "gapped.txt"
    gapped.write_bytes(b"\n".join(lines[:6] + [b""] * 50 + lines[6:]))
    for read in (lambda p: load_trajectory(p).positions, lambda p: _text.read_table(p)[1]):
        plain, plain_peak = traced_peak(lambda: read(path))
        rows, peak = traced_peak(lambda: read(gapped))
        assert rows.tobytes() == plain.tobytes()
        assert peak <= plain_peak + (1 << 20), (peak, plain_peak)


@pytest.mark.parametrize("n_rows", [100, 3 * _text._ROWS_PER_BLOCK + 17])
def test_save_trajectory_does_not_depend_on_width(library, tmp_path, monkeypatch, n_rows):
    # the blocks are formatted on as many threads as cores and written in
    # order: the reference writer's bytes at widths 1 and 2, from a table
    # shorter than one block and one that ends mid-block.  The rows of a
    # block are built when the writer asks for it, so with the one being
    # built at most width + 1 blocks exist
    rng = np.random.default_rng(n_rows)
    traj = Trajectory(dt=2e-5, positions=rng.standard_normal((n_rows, 3)) * 1e-7, seed=3)
    path = tmp_path / "saved.txt"
    timed_rows = dynamics._timed_rows
    texts = []
    for width in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=width: set(range(n)))
        held, blocks = [], []

        def watched(*args):
            gc.collect()
            held.append(sum(b() is not None for b in blocks))
            block = timed_rows(*args)
            blocks.append(weakref.ref(block))
            return block

        monkeypatch.setattr(dynamics, "_timed_rows", watched)
        save_trajectory(traj, path)
        texts.append(path.read_bytes())
        assert len(held) == -(-n_rows // _text._ROWS_PER_BLOCK)
        assert max(held) <= width
    monkeypatch.setattr(_compiled, "load", lambda: None)
    save_trajectory(traj, path)
    assert texts == [path.read_bytes()] * 2


def write_every_table(folder):
    """Each table file darkfocus writes, into folder: a trajectory with a
    seed and an escape, a PSD, an intensity grid, a force grid and
    cmd_absorb's eta_vs_radius.txt."""
    rng = np.random.default_rng(45)
    positions = rng.standard_normal((2 * _text._ROWS_PER_BLOCK + 5, 3)) * 1e-7
    escape = EscapeReport(position=tuple(positions[-1].tolist()), time=0.32778,
                          step=len(positions) - 1)
    traj = Trajectory(dt=2e-5, positions=positions, seed=11, escape=escape)
    save_trajectory(traj, folder / "trajectory.txt")
    estimate_psd(traj, nperseg=1024).save(folder / "psd.txt")
    beam = BeamParams(lambda0=780e-9, n_medium=1.53, na=0.46, p_total=50e-3)
    render_intensity_grid(beam, GridSpec.centered(1e-6, 3e-6, 7, 9)).save(
        folder / "intensity_grid.txt")
    sample_force_grid(lambda x, y, z: np.stack((-x, -y, -2 * z), axis=-1),
                      (1e-7, 1e-7, 3e-7), 5, provenance="linear model").save(
        folder / "force_grid.txt")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["absorb", "--out", str(folder / "absorb")]) == 0
    return {name: (folder / name).read_bytes() for name in (
        "trajectory.txt", "psd.txt", "intensity_grid.txt", "force_grid.txt",
        "absorb/eta_vs_radius.txt")}


def test_every_table_file_is_the_same_on_both_writers(library, tmp_path, monkeypatch):
    (tmp_path / "compiled").mkdir()
    (tmp_path / "reference").mkdir()
    compiled = write_every_table(tmp_path / "compiled")
    monkeypatch.setattr(_compiled, "load", lambda: None)
    assert write_every_table(tmp_path / "reference") == compiled
    headers = {name: _text.read_table(tmp_path / "compiled" / name)[0] for name in compiled}
    assert headers == {
        "trajectory.txt": ["# dt=2e-05", "# seed=11", "# provenance=simulated",
                           "# escape_step=16388 escape_time=0.32778", "t x y z"],
        "psd.txt": ["# window=hann", "# nseg=31", "# nperseg=1024 overlap=0.5", "f psd"],
        "intensity_grid.txt": ["# axis x: -1e-06 3.333333333333333e-07 7",
                               "# axis z: -3e-06 7.5e-07 9"],
        "force_grid.txt": ["# source: linear model", "x y z fx fy fz"],
        "absorb/eta_vs_radius.txt": ["r_eff eta_abs"],
    }
    rows = {name: _text.read_table(tmp_path / "compiled" / name)[1].shape for name in compiled}
    assert rows == {"trajectory.txt": (2 * _text._ROWS_PER_BLOCK + 5, 4), "psd.txt": (512, 2),
                    "intensity_grid.txt": (63, 1), "force_grid.txt": (125, 6),
                    "absorb/eta_vs_radius.txt": (24, 2)}
