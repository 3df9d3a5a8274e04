"""Golden outputs of the command-line interface.

Each command's stdout (or ``--out`` file) is pinned by its sha256 together
with its exit code, so a refactor that changes one byte of a report, a
witness or a connection matrix fails here.  The commands cover every
verify suite at small n and k (most at a drawn mu with a large integer and
a repeated value), ``connect`` at n=3 (which runs the tridiagonal check),
at n=4 (JSON and CSV) and on the empty bases of n=1, the polynomial JSON
of ``basis`` at n=3 and n=4, ``racah``, the recoupling graph at n=4
(JSON) and n=5 (dot), and the engine failure that exits 1 with no output.

After a deliberate output change, recompute the digest of the command's
output (``python -m racah_dunkl.cli <command> | sha256sum``) and say in
the change log why the bytes moved.
"""

import contextlib
import hashlib
import io

import pytest

from racah_dunkl.cli import main

STDOUT_GOLDEN = (
    ("verify su11 --n 3 --kmax 2", 0,
     "ba54c935ad7dcb4f1c6346d6a193821d54c394291118946ec44740e1356eff83"),
    ("verify su11 --n 2 --kmax 3 --mu 3/7,1000000", 0,
     "3de2cd1e31b3fd5d501afa524cb9dc3fad3b2fb6784c1c79b9320aac8c64d780"),
    ("verify racah --n 3 --kmax 2", 0,
     "98eff8ef7abdf30f94fe19a0401e5d3da4222f8d4b71f2cd4c677741f307a7d8"),
    ("verify racah --n 4 --kmax 1 --mu 3/7,1000000,3/7,2", 0,
     "fd43e800304520c4025c52aa84a703ebdf6c5116b85bfeee65f4fd1d8355aaab"),
    ("verify lemma1 --n 3 --kmax 2 --mu 3/7,1000000,3/7", 0,
     "e38f8f1542da112755cd206364f85ff96c2af4be9040fe778d9de0788a561328"),
    ("verify lemma2 --n 3 --kmax 2 --mu 3/7,1000000,3/7", 0,
     "42c46ad091b475c9cc15daa9a07b15cc64fc396c570e55d37d6e254fed31381e"),
    ("verify drinfeld-kohno --n 4 --kmax 1 --mu 3/7,1000000,3/7,2", 0,
     "94bede3bb0ea144a5b76707e62c5bde9c24f3413ab97fe0b5cfc8b85be3bd727"),
    ("verify embedding --n 4 --kmax 1 --mu 3/7,1000000,3/7,2", 0,
     "26e420760e3362d443b2e790c10a934da3b3d82c6d60a1dedd0d6016f382029b"),
    ("verify ck --n 3 --kmax 2 --mu 3/7,1000000,3/7", 0,
     "c96cfc6fb797677b357f1fff8dbd05e2512ef240d9d6951779cc6a3ca9ec085d"),
    ("verify lemma3 --n 2 --kmax 1 --mu 3/7,1000000", 0,
     "da755b2ab9c5bff9e242d665342e0c875d6b31a3967bbd5771f392adef416529"),
    ("verify eigen --n 3 --kmax 2 --mu 3/7,1000000,3/7 --order 2,3,1", 0,
     "053f8cbb57df85e4a161a58b82497dd0c4d6c937054888442198f04bad217867"),
    # several columns and degrees per check: the order of the per-element records
    ("verify eigen --n 4 --kmax 3 --mu 3/7,1000000,3/7,2 --order 4,2,3,1", 0,
     "7f964706f8fa9cc9a009b613c0729adc153446ce1bdcb0e62f6101c75b06c38c"),
    ("verify lemma3 --n 3 --kmax 2 --mu 7,1/9,1000000", 0,
     "cfd627fbf6a6eab0d52bdb3951d68da43f1ea24cdc849226ccca0a26e6b802d4"),
    ("verify ck --n 4 --kmax 3 --mu 3/7,1000000,3/7,2", 0,
     "24c9d53bc397e37dd8d814f458f20f2eb56e56f365fdca727091dcc53b02877f"),
    ("connect --n 3 --k 3 --from 1,2,3 --to 2,3,1", 0,
     "e6f87cb6a409430541e6815ed09eacecef49fa2b8a173a3cd8d12201036672a8"),
    ("connect --n 3 --k 2 --mu 7,1/9,1000000 --from 1,2,3 --to 1,3,2", 0,
     "bdc39d8deb835b7b34c3843282aa7c7c4e2c2105d7b747e84ed1b98166874659"),
    ("connect --n 4 --k 2 --from 1,2,3,4 --to 3,4,2,1", 0,
     "dcc368713600789da12d13891e218f07e9fc9444bdfe0e92bf56433fa87ce89e"),
    ("connect --n 4 --k 2 --from 1,2,3,4 --to 3,4,2,1 --format csv", 0,
     "037d403a1797ade13632b2d4dccbe031df0e0ef3193f4914fcff3b6946e800a7"),
    # empty bases: "entries": [] and exit 0
    ("connect --n 1 --k 2 --from 1 --to 1", 0,
     "55ead004b6a64056c10c7fa64e38234b0d271ec79c97f783f433ade0c156f203"),
    ("basis --n 4 --k 4 --mu 3/7,1000000,3/7,2 --order 2,4,1,3", 0,
     "770501f1d2adb5188f2034829d0a2d1b07ed8765aedb79d01674ab7935e0a351"),
    ("basis --n 3 --k 5 --mu 7,1/9,1000000", 0,
     "b64d6194c7c5c324b34279069f4ab44a4f6c27ff7d399f102ace84fbd02d2a1b"),
    ("racah --n 3 --epsilon 0,1,0 --degree 5", 0,
     "4a6455f68c4089558025d4c82be543c6ea793596082375423fa90991f8388348"),
    ("graph --n 4", 0,
     "e40eaf4a49e7b2a90ce01fee9a8ead7b8de0375d8e6ab63add411340066d95d5"),
    ("graph --n 5 --format dot", 0,
     "f0657dbab7c6bc4e5a47fd66f3e671623465148759cba92b293cf509538999cc"),
    # degenerate spectrum: OmegaZero, exit 1 and nothing on stdout
    ("racah --n 3 --mu 1/2,1/2,1/3 --epsilon 0,0,0 --degree 2", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
)

OUT_FILE_GOLDEN = (
    ("verify racah --n 3 --kmax 1 --mu 5,1/6,5", 0,
     "b19930fbc69c7a163ca934714ac5b0d3cc55ebb0b618d7bcf48a39b700c7bb7f"),
    ("connect --n 3 --k 2 --format csv --from 1,2,3 --to 2,3,1", 0,
     "a47514da26c40b443e1898a1b7737f154d5362e6eca1be788ada0201a820fd4e"),
)


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("command,code,digest", STDOUT_GOLDEN)
def test_stdout_is_byte_identical(command, code, digest):
    got_code, text = _run(command.split())
    assert got_code == code
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("command,code,digest", OUT_FILE_GOLDEN)
def test_out_file_is_byte_identical(tmp_path, command, code, digest):
    path = tmp_path / "out"
    got_code, text = _run(command.split() + ["--out", str(path)])
    assert got_code == code
    assert text == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
