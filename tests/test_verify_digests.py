"""Byte-identity gate for the verification suites.

Each row is a suite, its arguments and two sha256 digests: of the full
stdout of ``braidcert verify --suite SUITE ...`` (the JSON summary), and of
the check names that the library function of ``braidcert.verify`` returns,
joined by newlines.  The rows cover the relators suite at every (n, k) with
3 <= k <= n <= 9, the appendix suite at seeds 0-2 and the tracer suite at
n = 3..7.  A change that renames, drops, adds or reorders a check, or that
alters any byte of the summary, fails here.
"""

import hashlib

import pytest

from braidcert.cli import main

# (suite, arguments, sha256 of the stdout, sha256 of the check names)
CORPUS = [
    ("relators", (3, 3),
     "326e0140560ed6fe88a3110c7a976851fb6bb564cdd30f577ff5d57032171cf8",
     "97e36140b7eeec4f520d363f30728744b2a40e9bdcd489f535516587222fbcfe"),
    ("relators", (4, 3),
     "4acb50bab21d340db2dedfe90d6ac68ad717e59d08bd085c045923c1de48b783",
     "18ad36daf46c943e817e77ec64994894ce3f9b2c4af8cc5c7378542feb1653c6"),
    ("relators", (4, 4),
     "ec0b7dd0011f7337306d754144cf89e88e572df279e423007580ca2c08caf652",
     "c4cd4cff2b057ba2a93a640ed8c1cf14c1c82faf32b95a3b7621b9460162b695"),
    ("relators", (5, 3),
     "7325598f3a762871023cb50b055bc6fe4cd24f2b5d0efe31bb01af3f8b69568e",
     "58d3bb46f15648dc126af34af43b80c9b013ae9ee929fe5631116a9781bf7992"),
    ("relators", (5, 4),
     "f82e5173e96c7f2dbfa477a20efe91ad69417f0209d4261a56112d6b15e4871a",
     "2de218e05f59609ba0150f6467d8cd50adce21083e0a1ecd7b9ed18ddf301c64"),
    ("relators", (6, 3),
     "a5d6d57dceecaabcbeaa8a26832eaee160ca11c192b449f7b53bfca887e6af1c",
     "491ebab7f803781473ae7d14c7db7f1a6e0cc6b1f4b3671dcd2bc48cbfea8932"),
    ("relators", (6, 4),
     "e395938526370dae2fe0ab3e62e1192d725dad9c01e42016be7389c5dfaa6cad",
     "d29d3d200f50881dcc5ba1ce41f58a36c95fbad8a4efb40ad4f10902e30580e7"),
    ("relators", (7, 3),
     "3b6152b3625e44bfb46b40589e07d88411fb77dd966dc9d091f8fbb71fafc8de",
     "79e981c66685f9638871a13cd5e26ceafa1c9a53552f5965346cdc9cc2f23b09"),
    ("relators", (7, 4),
     "51d4bdf244023b3c5a4ac0a871845af40bf86612ebaf27e6b83e1a9aedfe2303",
     "1f690611db97072200736d547ddba6dfaf8971884d1a3f4bb42fa500f10191ce"),
    ("relators", (8, 3),
     "43a6b0dd99a04c0bdacca7d5e7f2442ff4d148b44092aa6120574457aab69b9b",
     "92e5c2e29a500373df1a9a312bab94bbae4bc23a1734bf5dfdd010afe6b2b8aa"),
    ("relators", (8, 4),
     "83838249aaed349ff33d06a63ee7a6df6e701baff7794318c68178d6f0c2bb1b",
     "f21fac1c9c5a530898c1a93ed6bde0cd7daa2a27653d926ed61e1cc640f54c71"),
    ("relators", (9, 3),
     "b0d7a4aefd0d4b04056d3df862cd81dcb577bb602e8f72613bbe82a0ab872dd5",
     "66b16bcfbec49f47879095ca6d288e06c7c89b638d22f1ef0ed8585a29467992"),
    ("relators", (9, 4),
     "71cf925a6d14578401281ee6661e15e914f99746a85c75586eef59676e8903e5",
     "f07fdc5fc84b2f241a1de8fb744ef5cb28a1b5a291830d5c53b1bf65a9af5130"),
    ("appendix", (0,),
     "d9816b2957f5bbded0dd894810f23eb3c5e7d7460c936617741edbae4ce61d6a",
     "d601d004eec2ef93e85cf49b1440fb68132a226bfe22c4b5ffc69f232d70e5ed"),
    ("appendix", (1,),
     "d9816b2957f5bbded0dd894810f23eb3c5e7d7460c936617741edbae4ce61d6a",
     "d601d004eec2ef93e85cf49b1440fb68132a226bfe22c4b5ffc69f232d70e5ed"),
    ("appendix", (2,),
     "d9816b2957f5bbded0dd894810f23eb3c5e7d7460c936617741edbae4ce61d6a",
     "d601d004eec2ef93e85cf49b1440fb68132a226bfe22c4b5ffc69f232d70e5ed"),
    ("tracer", (3,),
     "f2e893963859a6ed4ed69f81c32aa719b813a5c20a9c2deff234d4303893a878",
     "47a48e8b29aa642044ad8da870d4e204730bb4cc44c9d8822df24b2c05925db9"),
    ("tracer", (4,),
     "08d162eb664c5b92b4ca83252b5535ff0ab4406dc9062f4ed65e9cd42e6da2a9",
     "c00eeff296a43f444d9129a0e94d0c7e5a6bf28bbbeb49da55f8e2b6fe55bb19"),
    ("tracer", (5,),
     "8dbdb5cd6e024b840c47cab27c13aaa572ad8bc4ae67a631a3ef9fa89a3708e2",
     "a8a7fc0735c87951b509f719495a1541fbf9be60675ff346197274315d6237ae"),
    ("tracer", (6,),
     "fa88820b819811a49e2037a5df988d3bf17c3459971b059fb209b8d8a266f424",
     "cf1400f1d8aff96ee06c51831ab039426ee1b588197b4e8c472acd3cce21b651"),
    ("tracer", (7,),
     "f2fe54ca4f08d36f383882d140364c64f2e252fd2c5ec26b3b75fadb5dcdbecc",
     "265b2b389575fcb9ea492eb242e8b6839d8e48541ceb11e45556a41b03501a78"),
]

def argv(suite, args):
    if suite == "relators":
        n, k = args
        return ["verify", "--suite", suite, "--n", str(n), "--k", str(k)]
    if suite == "appendix":
        return ["verify", "--suite", suite, "--seed", str(args[0])]
    return ["verify", "--suite", suite, "--n", str(args[0])]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("suite, args, stdout_digest, names_digest", CORPUS)
def test_verify_stdout_digest(suite, args, stdout_digest, names_digest, capsys):
    assert main(argv(suite, args)) == 0
    assert sha256(capsys.readouterr().out) == stdout_digest


@pytest.mark.parametrize("suite, args, stdout_digest, names_digest", CORPUS)
def test_verify_check_names_digest(suite, args, stdout_digest, names_digest):
    # imported in the test, so that the stdout rows need nothing but the CLI
    from braidcert import verify

    library = {"relators": verify.relator_checks, "appendix": verify.appendix_checks,
               "tracer": verify.tracer_checks}
    checks = library[suite](*args)
    assert all(ok for _, ok in checks)
    assert sha256("\n".join(name for name, _ in checks)) == names_digest
