"""Run of tools/cli_digest.py, the per-verb digest of the CLI's answers used to compare checkouts.

Each verb's digest is pinned, so a change that alters any byte of a verb's answers on the tool's
grid fails here.
"""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"
VERBS = ["string approx", "string limit", "limit", "fpt", "funcspace", "adjunction", "boundary",
         "table8", "pipeline", "lcr backward", "lcr forward", "decompose", "replicate", "cpo", "compare",
         "neighbors", "stage", "funcs", "mu", "ep", "paths", "diagram", "normalize", "iso", "string realize",
         "string opp", "string opp-pair", "string lr", "string lr-pair", "string classify", "usage"]


# each verb's digest over the tool's grid, as the answers stand; `usage` is left out, as its bytes are
# argparse's own and may change with the Python version, and so is the total, which covers it
DIGESTS = {
    "string approx": "28608313878841c8987530fb183329d604cb4c44305d2da4e826a8b4d86abebe",
    "string limit": "491a606596848245456dcf6f5402d7f6fc1e2201ff15f2daa96016c2c43ffb32",
    "limit": "b6692664a97a1c967cb3ffe2000af57a148fe66334383d8e2d900f7108944b59",
    "fpt": "e8c1ce5ab90328a6d8735040bad52b18ee2ba0c197a23f63f21df7b8431e0ef9",
    "funcspace": "f16925d482baa8d296d7f776b9ac2d34a2e79e5beca21aec403291d3421feb9a",
    "adjunction": "a65860f59e82a55e08fdd0ce1a3153cffd52877adebadb82625add1d8e258290",
    "boundary": "bbd1756a05dde9a5e820203ef601e8fca42db37f98f823023877bf9e9f31025c",
    "table8": "267eb531b338141526eeca2bbc2258cf6c9c35998952bed83c2b9ceabf307045",
    "pipeline": "14067684b1060952ff1afdc262f3b6baeea50372691161f5eee58b53e224d266",
    "lcr backward": "f060f2cf8a75742e755c2e0852fda2b31086f0530bcb13b95258e87d6b97268d",
    "lcr forward": "356cf8988e347923e01c30970605fde35c8a67133616c61672cda2e4fbb27d7d",
    "decompose": "f5485a961769200c722ceb5e88db217440bcfb00eb27379cd35ab513386439fc",
    "replicate": "ac899b81d9a7c98a5df498c3c00359c23ecc393af2cc00a07d5dd7d42724d65c",
    "cpo": "0be225ee69b100b4788b4a208008f86c0ec0f54a789c51ba61971cb63bef89da",
    "compare": "e59ba9cb3d152e2d14dd2eef18882abbe59c9773d1452a8aaf29fb46a45c94d6",
    "neighbors": "a641e30746e5ea94ec183d5be100d6643138eb3cc8ca64edaa7e0843da035c4e",
    "stage": "ec2a5c4ac9da3d0ff5f92f01f8265643ed2996210899d402082d8cb0326b0d55",
    "funcs": "ce0232be547d57cec524025f27ceeb6494112e1333b0f07555a4a9a6a660b2e5",
    "mu": "1e389ba6fc35cbdab24d7db3b4fb7762235ed17e9e914261c3f2a4599c1ca12d",
    "ep": "8ce2eea689852e7c3da25997ffb947324dc4f766952c0b8ae54dcd8103ec0b35",
    "paths": "e19e801a7ad3be42fcde9ee34823ee689ebd252d08f5d5423c7871ded9c5688a",
    "diagram": "29ebf2c949d725bc3abca7d8c733fc56e2009afa6a6640bb7347af0954cba4da",
    "normalize": "915661f9454403822a2a2243740c0da444f39c2d4ac5a629b3cdf329d8a2563c",
    "iso": "0a996dee81de14db47e9d3c3a309050ad334099f1d8bdf47ec62524e4a6876f6",
    "string realize": "ce28b1aa01daba50a092f6c3ddcb13693b6e01a2f8526471a07c41f19194bd04",
    "string opp": "89c2a47fa59d62b27372e4711606c68c27547c07ea57217e78d0e3e28f1d534a",
    "string opp-pair": "5064cb88f77a22c30b6d55d294e2119140317f6e6da124df5270a797ede4d71b",
    "string lr": "ac69492f6c0406bb855cf65d4e0eaada8e161315d9166fc5e6938082d2e58807",
    "string lr-pair": "e65f4b20942b0b2f8fcbc19471903375f1881f569a841e101ad2a7a53efbc2cb",
    "string classify": "f88ea6df93a6b6be2131484772f38265e94aee5e418e144acd3802a63389bb81",
}


def test_prints_one_digest_per_verb_and_a_total():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = [re.fullmatch(r"([0-9a-f]{64})  ([ \d]{5})  (.+)", line) for line in proc.stdout.splitlines()]
    assert all(rows), proc.stdout
    assert [m[3] for m in rows] == VERBS + ["total"]
    assert all(int(m[2]) > 0 for m in rows[:-1])
    assert {m[3]: m[1] for m in rows if m[3] in DIGESTS} == DIGESTS
