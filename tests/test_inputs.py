"""The input contract: malformed scenarios, lists, shape specs, configs and
PGM files raise a MaskrecError, and the CLI turns each into exit 2."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from maskrec import cli, errors, harness
from maskrec.errors import ConfigurationError, MaskrecError
from maskrec.maskgeom import make_mask, read_mask_pgm
from maskrec.tfcore import TFGrid

# ------------------------------------------------------------ CLI exit codes

_SMALL = ["--n", "16", "--K", "4", "--trials", "1"]
_DISC = ["--shape", "disc:measure=2"]

# each row is a malformed input; files named here are written by the test
CLI_ROWS = {
    "sigma-nan": ["simulate", *_SMALL, *_DISC, "--sigma", "nan"],
    "sigma-inf": ["simulate", *_SMALL, *_DISC, "--sigma", "inf"],
    # sigma^2 subnormal; an average spectrogram that overflows
    "sigma-below-range": ["simulate", *_SMALL, *_DISC, "--sigma", "1e-160"],
    "sigma-above-range": ["simulate", *_SMALL, *_DISC, "--sigma", "1e160"],
    "r-list-nan": ["simulate", *_SMALL, *_DISC, "--r-list", "nan"],
    "r-list-negative": ["simulate", *_SMALL, *_DISC, "--r-list=-1,2"],
    "r-list-negative-zero": ["simulate", *_SMALL, *_DISC, "--r-list=-0,2"],
    "annulus-cf-only": ["simulate", *_SMALL, "--shape", "annulus:measure=4,cf=2"],
    "seed-negative": ["simulate", *_SMALL, *_DISC, "--seed", "-1"],
    "verify-seed-negative": ["verify", "--sizes", "8", "--seed", "-1"],
    "verify-seed-past-64-bits": ["verify", "--sizes", "8", "--seed", str(2**64 - 8)],
    "discs-cx-only": ["simulate", *_SMALL, "--shape", "discs:(cx=1,measure=2)"],
    "annulus-cx-only": ["simulate", *_SMALL, "--shape", "annulus:measure=4,cx=2"],
    "disc-measure-nan": ["simulate", *_SMALL, "--shape", "disc:measure=nan"],
    "disc-measure-abc": ["simulate", *_SMALL, "--shape", "disc:measure=abc"],
    "shape-blank": ["simulate", *_SMALL, "--shape", " "],
    "config-shape-blank": ["simulate", "--config", "{tmp}/blank_shape.cfg"],
    "sweep-values-nan": ["sweep", "--axis", "measure", "--values", "1,nan", *_SMALL, *_DISC],
    "r-list-letters": ["simulate", *_SMALL, *_DISC, "--r-list", "a,b"],
    "r-list-repeated": ["simulate", *_SMALL, *_DISC, "--r-list", "0.5,0.5"],
    "r-list-same-column": ["sweep", "--axis", "K", "--values", "4", *_SMALL, *_DISC,
                           "--r-list", "0.1234561,0.1234562"],
    "config-r-list": ["simulate", "--config", "{tmp}/r_list.cfg"],
    "config-r-list-under-a-flag": ["simulate", "--config", "{tmp}/r_list.cfg", "--r-list", "1"],
    "sweep-values-letter": ["sweep", "--axis", "K", "--values", "4,x", *_SMALL, *_DISC],
    "verify-sizes-letter": ["verify", "--sizes", "8,x"],
    "pgm-truncated-header": ["simulate", *_SMALL, "--shape", "image:{tmp}/head.pgm"],
    "pgm-truncated-payload": ["simulate", *_SMALL, "--shape", "image:{tmp}/payload.pgm"],
    "config-missing": ["simulate", "--config", "{tmp}/missing.cfg"],
    "image-missing": ["simulate", *_SMALL, "--shape", "image:{tmp}/missing.pgm"],
    "disc-unknown-key": ["simulate", *_SMALL, "--shape", "disc:measure=4,radius=3"],
    "rect-unknown-key": ["simulate", *_SMALL, "--shape", "rect:x0=0,f0=0,w=2,h=2,q=1"],
    "threads-negative": ["simulate", *_SMALL, *_DISC, "--threads", "-3"],
    "threads-zero": ["sweep", "--axis", "K", "--values", "4", *_SMALL, *_DISC, "--threads", "0"],
    "pgm-maxval-zero": ["simulate", *_SMALL, "--shape", "image:{tmp}/maxval0.pgm"],
    "pgm-sample-above-maxval": ["simulate", *_SMALL, "--shape", "image:{tmp}/above.pgm"],
    "disc-repeated-key": ["simulate", *_SMALL, "--shape", "disc:measure=4,measure=8"],
    "config-repeated-key": ["simulate", "--config", "{tmp}/repeated.cfg"],
    "rect-fractional-width": ["simulate", *_SMALL, "--shape", "rect:x0=0,f0=0,w=2.5,h=2"],
    "sizes-empty-item": ["verify", "--sizes", "8,,16"],
    "n-repeated": ["simulate", "--n", "16", "--n", "32", "--K", "4", "--trials", "1", *_DISC],
    "n-equals-repeated": ["simulate", "--n=16", "--n", "32", "--K", "4", "--trials", "1", *_DISC],
    "values-repeated": ["sweep", "--axis", "K", "--values", "4", "--values", "8", *_SMALL, *_DISC],
    "sizes-repeated": ["verify", "--sizes", "8", "--sizes", "16"],
    "sweep-k-value-twice": ["sweep", "--axis", "K", "--values", "4,4", *_SMALL, *_DISC],
    "sweep-measure-value-twice": ["sweep", "--axis", "measure", "--values", "4,4", *_SMALL, *_DISC],
    "threads-repeated": ["simulate", *_SMALL, *_DISC, "--threads", "1", "--threads", "2"],
    # spectrum runs no trial pool
    "spectrum-threads": ["spectrum", *_SMALL, *_DISC, "--threads", "2"],
    "verify-size-twice": ["verify", "--sizes", "8,8"],
    "pgm-smaller-than-grid": ["simulate", *_SMALL, "--shape", "image:{tmp}/small.pgm"],
    "pgm-not-square": ["simulate", *_SMALL, "--shape", "image:{tmp}/wide.pgm"],
    # argparse's own errors
    "threads-not-an-int": ["simulate", "--n", "16", "--threads", "x"],
    "verify-seed-not-an-int": ["verify", "--seed", "x"],
    "unknown-flag": ["simulate", "--bogus", "1"],
    "sweep-axis-missing": ["sweep", "--n", "16", "--values", "4"],
    "sweep-axis-sigma": ["sweep", "--axis", "sigma", "--values", "1", "--n", "16"],
    "annulus-outer-disc-past-the-plane": ["simulate", "--n", "32", "--shape",
                                          "annulus:measure=30,hole=40"],
    # inputs too large to allocate: 233 TiB is past the address space, so the
    # allocation fails at once and uses no memory
    "K-unallocatable": ["simulate", "--n", "16", *_DISC, "--K", "1000000000000",
                        "--trials", "1"],
    "sweep-K-unallocatable": ["sweep", "--axis", "K", "--values", "4,1000000000000",
                              "--n", "16", *_DISC, "--trials", "1"],
}

# rows whose whole error line is pinned
ERROR_LINES = {
    "annulus-outer-disc-past-the-plane": "error: disc measure 70.0 outside [0, 32.0]",
}


@pytest.mark.parametrize("row", sorted(CLI_ROWS))
def test_malformed_input_exits_2_with_one_error_line(row, tmp_path, capsys):
    (tmp_path / "r_list.cfg").write_text("n = 16\nshape = disc:measure=2\nr_list = x\n")
    (tmp_path / "blank_shape.cfg").write_text("n = 16\nshape =\nK = 4\ntrials = 1\n")
    (tmp_path / "head.pgm").write_bytes(b"P5\n16 ")
    (tmp_path / "payload.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(100))
    (tmp_path / "maxval0.pgm").write_bytes(b"P5\n16 16\n0\n" + bytes(256))
    (tmp_path / "above.pgm").write_bytes(b"P5\n16 16\n1\n" + bytes(255) + b"\x02")
    (tmp_path / "repeated.cfg").write_text("n = 32\nn = 64\nK = 4\ntrials = 1\n")
    (tmp_path / "small.pgm").write_bytes(b"P5\n8 8\n255\n" + bytes(64))
    (tmp_path / "wide.pgm").write_bytes(b"P5\n16 8\n255\n" + bytes(128))
    argv = [arg.format(tmp=tmp_path) for arg in CLI_ROWS[row]]
    if argv[0] != "verify":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert err[0] == ERROR_LINES.get(row, err[0])
    # a bad image is named in its error line
    images = [arg.removeprefix("image:") for arg in argv if arg.startswith("image:")]
    assert all(image in err[0] for image in images), err


def test_errors_defines_one_class_per_exit_code():
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert classes == {"MaskrecError", "ConfigurationError", "NumericError"}
    assert issubclass(ConfigurationError, MaskrecError)
    assert issubclass(errors.NumericError, MaskrecError)


@pytest.mark.parametrize(
    "exc, code, prefix",
    [(ConfigurationError, 2, "error: "), (MemoryError, 2, "error: "),
     (errors.NumericError, 3, "numeric error: ")],
)
def test_cli_maps_each_error_class_to_its_exit_code(exc, code, prefix, monkeypatch, capsys):
    def failing(scenario, out_dir):
        raise exc("raised by the spectrum run")

    monkeypatch.setattr(harness, "run_spectrum", failing)
    assert cli.main(["spectrum", *_SMALL, *_DISC]) == code
    assert capsys.readouterr().err.splitlines() == [prefix + "raised by the spectrum run"]


_COMMANDS = {
    "simulate": [],
    "sweep": ["--axis", "K", "--values", "4"],
    "spectrum": [],
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_unusable_out_dir_exits_2(command, tmp_path, capsys):
    # a regular file as the parent of the output directory
    (tmp_path / "file").write_text("")
    argv = [command, *_COMMANDS[command], *_SMALL, *_DISC]
    assert cli.main([*argv, "--out-dir", str(tmp_path / "file" / "x")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot create output directory")


@pytest.mark.parametrize(
    "command, name",
    [("simulate", "trials.csv"), ("simulate", "rho.pgm"), ("simulate", "rho.meta.txt"),
     ("sweep", "summary.csv"), ("spectrum", "spectrum.csv")],
)
def test_unwritable_output_file_exits_2(command, name, tmp_path, capsys):
    # a directory where the run writes a file
    (tmp_path / name).mkdir()
    argv = [command, *_COMMANDS[command], *_SMALL, *_DISC, "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {str(tmp_path / name)!r}")
    # the files the run wrote before that one are removed
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(["sweep", "-h"])
    assert done.value.code == 0
    assert "--axis" in capsys.readouterr().out


def test_unusable_out_dir_is_a_configuration_error(tmp_path):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "x"
    sc = harness.Scenario(n=16, shape="disc:measure=2", count=4, trials=1)
    for run in (
        lambda: harness.run_simulate(sc, out),
        lambda: harness.run_sweep(sc, "K", [4], out),
        lambda: harness.run_spectrum(sc, out),
        lambda: harness.run_simulate(sc, tmp_path / "file"),
    ):
        with pytest.raises(ConfigurationError, match="output directory"):
            run()


@pytest.mark.parametrize("route", ["config", "flag"])
def test_comma_bearing_rect_shape(route, tmp_path):
    shape = "rect:x0=0,f0=0,w=4,h=4"
    if route == "config":
        cfg = tmp_path / "rect.cfg"
        cfg.write_text(f"n = 16\nshape = {shape}\nK = 4\ntrials = 1\n")
        argv = ["simulate", "--config", str(cfg)]
    else:
        argv = ["simulate", *_SMALL, "--shape", shape]
    assert cli.main([*argv, "--out-dir", str(tmp_path / "out")]) == 0
    truth = read_mask_pgm(tmp_path / "out" / "truth.pgm")
    assert np.count_nonzero(truth.cells) == 16
    assert truth.cells[:4, :4].all()


@pytest.mark.parametrize("maxval", [1, 2, 255])
def test_read_mask_pgm_counts_a_cell_inside_above_half_maxval(maxval, tmp_path):
    values = (np.arange(256) % (maxval + 1)).reshape(16, 16).astype(np.uint8)
    path = tmp_path / "mask.pgm"
    path.write_bytes(f"P5\n16 16\n{maxval}\n".encode() + values.tobytes())
    assert np.array_equal(read_mask_pgm(path).cells, 2 * values.astype(int) > maxval)


# ------------------------------------------------------- property tests


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    """One file that each example of a property test overwrites."""
    return tmp_path_factory.mktemp("inputs") / "input"


_numbers = st.one_of(
    st.integers(-(10**20), 10**20).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "abc", "1e999", "-0", "0x10", "1_0"]),
)
_values = st.one_of(
    st.text(max_size=12),
    _numbers,
    st.lists(_numbers, max_size=4).map(",".join),
)


@settings(max_examples=100, deadline=None)
@given(
    values=st.dictionaries(
        st.one_of(st.sampled_from(harness.SCENARIO_KEYS), st.text(max_size=6)), _values
    ),
    preset=st.sampled_from([None, *sorted(harness.PRESET_KEYS)]),
)
def test_scenario_from_mapping_raises_only_package_errors(values, preset):
    keys = harness.PRESET_KEYS[preset] if preset else {}
    try:
        harness.scenario_from_mapping({**keys, **values})
    except MaskrecError:
        pass


_kv = st.tuples(
    st.sampled_from(["measure", "cx", "cf", "hole", "x0", "f0", "w", "h", "zz"]), _numbers
).map("=".join)
_body = st.lists(_kv, max_size=5).map(",".join)
_specs = st.one_of(
    st.text(max_size=20),
    st.tuples(st.sampled_from(["disc", "annulus", "rect", "not:disc", "blob"]), _body).map(
        ":".join
    ),
    st.lists(_body.map("({})".format), min_size=1, max_size=3).map(
        lambda terms: "discs:" + "+".join(terms)
    ),
)


@settings(max_examples=100, deadline=None)
@given(spec=_specs)
def test_make_mask_raises_only_package_errors(spec):
    assume("image" not in spec.lower())  # never open a path
    try:
        make_mask(TFGrid(16), spec)
    except MaskrecError:
        pass


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    content=st.one_of(
        st.binary(max_size=64),
        st.lists(
            st.tuples(st.sampled_from([*harness.SCENARIO_KEYS, "", "x"]), _values).map(
                " = ".join
            ),
            max_size=4,
        ).map(lambda lines: "\n".join(lines).encode()),
        st.text(max_size=40).map(str.encode),
    )
)
def test_load_config_raises_only_package_errors(content, input_file):
    path = input_file
    path.write_bytes(content)
    try:
        harness.scenario_from_mapping(harness.load_config(path))
    except MaskrecError:
        pass


_sep = st.sampled_from([b" ", b"\n", b"\t", b"#c\n", b" #\n", b""])
_token = st.one_of(
    st.integers(0, 20).map(lambda v: str(v).encode()),
    st.sampled_from([b"255", b"65535", b"9999999999", b"x", b""]),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    content=st.one_of(
        st.binary(max_size=64),
        st.tuples(
            st.sampled_from([b"P5", b"P2", b""]), _sep, _token, _sep, _token, _sep, _token,
            _sep, st.binary(max_size=300),
        ).map(b"".join),
    )
)
def test_read_mask_pgm_raises_only_package_errors(content, input_file):
    path = input_file
    path.write_bytes(content)
    try:
        read_mask_pgm(path)
    except MaskrecError:
        pass
