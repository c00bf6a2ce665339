"""Byte-identity gate for generator motions and their traces.

Each row is a motion (kind, n, i, j) and the sha256 of the full stdout of
``braidcert simulate --kind KIND --i I --j J --n N --trace``: the trajectory
JSON, the ``word:`` line and the ``events:`` line.  The corpus is every circle
generator at n = 4..7, every parabola generator at n = 4, 5, and every
parabola generator that builds at n = 6, 7 (12 of 15 and 14 of 21; the others
fail the letter-exact word check).  Among the parabola motions at n = 4, 5,
b13 and b23 at n = 4 and b13, b14, b23, b24 and b34 at n = 5 split a corridor
around a static circle, as does b15 at n = 6.  The rows above n = 5 carry
the largest integers the tracer handles.  A change to a motion builder, the
tracer or the JSON format that alters any byte of a trajectory, traced word
or event log fails here.
"""

import hashlib

import pytest

from braidcert.cli import main

# (kind, n, i, j, sha256 of the simulate --trace stdout)
CORPUS = [
    ("circle", 4, 1, 2, "e6587b42b08450e013baa4271a137ac9102d5d3ebccb7368159169b8a8b6640b"),
    ("circle", 4, 1, 3, "c4cfae15c83fda658d62e5b7d640a6904023a8d33d091efaaa550669af80af09"),
    ("circle", 4, 1, 4, "c111c7f0ecddca04f927b4eb11b0f7a8831e201a44035ca16700f3a72f1f60d8"),
    ("circle", 4, 2, 3, "19c288253aed8e1a437ded7d2f13cd489eaaf86cac4e895d7f91401bb79269a6"),
    ("circle", 4, 2, 4, "5aec5a5fdc839b0dc5f5027acb1aa33deaf4c326c7049601abfca0adaab487bd"),
    ("circle", 4, 3, 4, "5d4fd19c86bf4829f397319b81943e35ecd346986b97cbce7f5668e157063bec"),
    ("circle", 5, 1, 2, "fd91a8ecf33b5922aa58265c1feae69372c5226d9e4ff31d78f545cef29d312b"),
    ("circle", 5, 1, 3, "f62f78dbe5d4fda68211cb6f9ecc7234b87488b74733f0f29e2096b5c4bf1db1"),
    ("circle", 5, 1, 4, "59c7d509db8e13c9c1c7d90d9d4e3fa24825763d66711a7bbf0a8a3bec904c8d"),
    ("circle", 5, 1, 5, "464e52032627be7d616840965a612a9bb513d0c755c2bf27c1e921f8f196f3b0"),
    ("circle", 5, 2, 3, "8ba50f08eb6cf6a61ff67dfe9fb1e2563d7cefd71afd0f32589fd819ded5aeac"),
    ("circle", 5, 2, 4, "7d5c2018e486d77c1a107cc180657c0ffb724738b1142b61c57f0f69d2a3d212"),
    ("circle", 5, 2, 5, "9d85166df1e1f60cce039f3c9ee9e7a366334eefd0ab5f814532be372d0cbc9a"),
    ("circle", 5, 3, 4, "6b0ca7988a4b23b4c86ec29ca5312d0a3bbadc324b2b5ba223a48f26ada1ccbc"),
    ("circle", 5, 3, 5, "19f514ac1404dcebf9dd27f5b665d3342c53a86473e75e6e9cdf7844b2b7d803"),
    ("circle", 5, 4, 5, "08da8be2ec09d60d41b171c687041b69c4685f75a587f99c3ad2cd244c5d9033"),
    ("circle", 6, 1, 2, "ded648b6e786397c3510c21353d78fbc385207c0c6590f2169eced9df00ac0be"),
    ("circle", 6, 1, 3, "60bd175ebee4117492e577ed6eec238aba383463d8521a2fa8762d1e19c96bad"),
    ("circle", 6, 1, 4, "59360bc6b9b356fa5d78102a31918a63170cad40493893eb81de6635dd9d54ca"),
    ("circle", 6, 1, 5, "209a9a089f646ae04064122c8435eef989c071d39478cbe25d6380f1b1258363"),
    ("circle", 6, 1, 6, "28895448d80fb3562be90833b842c20ad765b3f6c417959e907a4149fa3f1544"),
    ("circle", 6, 2, 3, "e66de973c6219ce8db8492aa1076f58511cd09855d73dd295f62a8c37d34f405"),
    ("circle", 6, 2, 4, "fdc7bb190774d545196a27c987a10b4d4294e895788be0bd5eee6f5dd96fb9b7"),
    ("circle", 6, 2, 5, "3ab8424eabd3c364894b3f8c37b12e3c43ad5bf9544768e26be0ba4d65291786"),
    ("circle", 6, 2, 6, "69fa8ba56010b3b05ce1f7952a8c8d398ec82a8db7b0ebff21f31954ea4deb4f"),
    ("circle", 6, 3, 4, "02404bfdfc438bf19b709523e11aee67fdcb1db42cb70488491fd04549e3baac"),
    ("circle", 6, 3, 5, "2d1d459cc3d0736c768e547b765d935836c4a51f366b1f8633ba2df9620938c9"),
    ("circle", 6, 3, 6, "36f2d7ecb65430acf6aba5beec83ee953b8080ed7ab25b5f84412ddcff60f14f"),
    ("circle", 6, 4, 5, "2da16be5d069338cf7a80cb3acf970cf4f8e7d617eaa517b28362e59ec357816"),
    ("circle", 6, 4, 6, "e503e3b0519447bce1c985702e83b132252c38aafb5ad01a4ad395d5f3940ae1"),
    ("circle", 6, 5, 6, "b083faedea98864abb276416521342c7ba93cef6e7f91c44c09f329d8081bde9"),
    ("circle", 7, 1, 2, "8ed1a105cb568ee0a198c652810838a957d358abbd3ca8ed486a51981b194c98"),
    ("circle", 7, 1, 3, "86bd65eaa1c72d122386d4eac843706981204a6314bc7d2157cfc646c7130ff5"),
    ("circle", 7, 1, 4, "74713a20d022554cb77ad5b9130aacdf5d48834897f6a1d6c7d71df8ce4ae21d"),
    ("circle", 7, 1, 5, "9175df22e1fa7a480e4c4b374c739446f62e0febced8acadb79b8d63296e95a3"),
    ("circle", 7, 1, 6, "4cad1926f5b2108bc761a919dd831c638f88b4b7a4f93860f4d46492c7f3d069"),
    ("circle", 7, 1, 7, "4bb40b54af0f59e8c9c5336984be54b50099fe0882ac4a4ff1c96f9ed3541b55"),
    ("circle", 7, 2, 3, "8d8c5f97ed7cf21f5d4cced3fe7a12dc08c4fc8af6138094c04fdc2c115a7b4d"),
    ("circle", 7, 2, 4, "c6d602ecc1e128a6ad0d9170fdb9b3e463c53385c8addf96b9442bd44caf968f"),
    ("circle", 7, 2, 5, "b8929c03149c66e765202d88fa51ee1cee65173ff23cd7b990bbc4537f0aee47"),
    ("circle", 7, 2, 6, "94086b2fbbcc5b133e35c71f8bd6f9da065702e8bf7bcf99ff888b2a6e47dd5b"),
    ("circle", 7, 2, 7, "673a247f3873a28448eb5e9f9ccc920046a9aa201dc47b7078e7eb00b5028cee"),
    ("circle", 7, 3, 4, "4fea32aebffdea1cedf9381921263458b4ad70e069c95add282f975966ff7be2"),
    ("circle", 7, 3, 5, "725bbed595dad8ce1f99e9375752c568753c1265bf87b0f180643a9673cd53cb"),
    ("circle", 7, 3, 6, "b449c2039e02a39cb4132a732505cf7a51d640bc41a395d3c629fcd72df9f55b"),
    ("circle", 7, 3, 7, "3280a7ea8bb0a96b82fbffd5cb7cc19f5b7440439483e137f4e555886d7ce046"),
    ("circle", 7, 4, 5, "a3dfc50e058f384a82463f91f0f8dad604fdb8b79b6787435026ec4874f798ef"),
    ("circle", 7, 4, 6, "fc341f721e645e18b1bf5cb0c6bb43347b484b96c86e4d3a7cdc3b1401224437"),
    ("circle", 7, 4, 7, "221900e18221a18f00ff45be197c68f1f691dade4d65ba6fed937b73ccf91d33"),
    ("circle", 7, 5, 6, "bdd8e892ee8419b347c2925e72a815e5ba44a2461b73072fc4159d423d29f242"),
    ("circle", 7, 5, 7, "d63467bd97b28f70e385f341fe27a730bcd01f1d415ecac6016d29e15919df11"),
    ("circle", 7, 6, 7, "db9be879484c966ab86afc1ddcd0bc20f34ec4505eabb7f380fab76c8fe5cb2a"),
    ("parabola", 4, 1, 2, "23508ed2bf708afa0fd50c3e76f3ce56aadb1d5434b3a0046029102de8b3e0bd"),
    ("parabola", 4, 1, 3, "dfd93659cf079ccc6cde22255b0bf764ce45c8009960e47fb0c21168271b2ddb"),
    ("parabola", 4, 1, 4, "1361db1d85086a31f0437dd29950f1bf100213f188f100d7d8c014322b5529b4"),
    ("parabola", 4, 2, 3, "ff05d6d93ecb16cdbbcecccf72a356b76f45f1a87cdf128a9e74f344d7722fbf"),
    ("parabola", 4, 2, 4, "2398485eab12382cc69181d798f639da575b2cc6fa2afddc5a31402131f86d41"),
    ("parabola", 4, 3, 4, "8c68ae22ef3ae8db6da5372053175c31deb32f1f8e0cede0501b104c6a0f6d39"),
    ("parabola", 5, 1, 2, "28e743120977bec1c9a9b8af1cf23b93a2cb1e246d9fb793e106101599533767"),
    ("parabola", 5, 1, 3, "8a0c5abd6256e8b9ec566f3c54e8db73cce8d13280548354c8a3fcb2dd43608e"),
    ("parabola", 5, 1, 4, "c4f75bd2631e29e9c6c5d86b6d4bbed99912e4d85e7d0ae52fe4875956501791"),
    ("parabola", 5, 1, 5, "79effdb65e8fb433ae6cab4aa6790aa55088a475c88fc5554a798a1474763364"),
    ("parabola", 5, 2, 3, "86275ae51de0187eca28302efd33234bf81e0d5347014bcf175a3503869eb604"),
    ("parabola", 5, 2, 4, "943753bb690ba4704d3d213c456eba7bebbb95461e4e449a42c625c86685a890"),
    ("parabola", 5, 2, 5, "e15abf0e93da7ad15d4a9a75acb2fe9e7ad61ee96fab25efe05eff9212ca6191"),
    ("parabola", 5, 3, 4, "75eb87ed19d82923e82079a5beb641b12b9c7b35f3994a0b3e5dd21a69a85084"),
    ("parabola", 5, 3, 5, "055e1dbbcd81011a343d8eb8475dcaeb4f71031b9f168cc4403e437e3cabc311"),
    ("parabola", 5, 4, 5, "1d5340dd51d70316201cbbccaff12981231bfa59c726f7b0a36a9d8a10a9fed0"),
    ("parabola", 6, 1, 2, "b3a03b256ee2fe39ada1192706a84e98ffe0cf148a94b433aa55030147beb79a"),
    ("parabola", 6, 1, 3, "ec42a07e980bf17735bb813150295c1650aa39e3fa6f2b07c6ec65c9c0deba6a"),
    ("parabola", 6, 1, 5, "d136c52714368d4b949b3072a57ab1bb96619c2572f69e23ad8ee821d04c73ef"),
    ("parabola", 6, 1, 6, "7dcae6f536384c134783b5ad99ed77f11e7c893145140f60baae8f7a624af877"),
    ("parabola", 6, 2, 3, "21cc8f44f3f72319fc667882e9ea76ffb86b0294d1e24a1ad7394909e3419f56"),
    ("parabola", 6, 2, 5, "b544678f31aa2d3bf684ee600c4876d732fb690fcc68e8ca35f0809cddba0838"),
    ("parabola", 6, 2, 6, "a57d93fe68cc4016bc52faeb174dc3fbe0fed2a660eb9ff8bb5cfac981673a21"),
    ("parabola", 6, 3, 5, "e7c0a10c0a38cd3122393b5fcd493923cbbd9f9be3bcb3faf1a779fba6fbd92d"),
    ("parabola", 6, 3, 6, "9b659b80b979a582de155d965a3fcea123df52c6f035f798036b84c6e65fcca1"),
    ("parabola", 6, 4, 5, "77fb5c051888506d2af8302a7f23796feeb561ccbae7ecfd23ef8b4e9d8e0f51"),
    ("parabola", 6, 4, 6, "beba25a9a7eba5021c07a09a1cdd8f5636cea0f661929f445978b9b114def5df"),
    ("parabola", 6, 5, 6, "d1fc0398c29259e0ae4a86507e4d57b08ea95fc1d27cf0aaa696773b7b29f8da"),
    ("parabola", 7, 1, 2, "fd1f7aaa6bea96c0ece153973470c93de447083998534795871a5767692dfe97"),
    ("parabola", 7, 1, 3, "41561c3bae17580d0c8297bcf4fb51544614fe50bca3ba1bdacb88ba4bb9e8f9"),
    ("parabola", 7, 1, 6, "efb4427e81dc063152ae778e1094dc12761e9fd17fe6ee181224d1432219a9cb"),
    ("parabola", 7, 1, 7, "ba1ade144df6edee629b2640c8d908437312edefdb31e7de9285c41e272bfa55"),
    ("parabola", 7, 2, 3, "251b0cea708e5c7c373adbb3c5f4e7193b547b0f9c9530f4acbc12d0bec33493"),
    ("parabola", 7, 2, 6, "856263149e3502e748dc47bf009590b826d7556eadb5206972857903e708f907"),
    ("parabola", 7, 2, 7, "fdd9eed0cc9d888f98cf080a3c2367b43c10c8c0eaf815fda40aa4b05b941cc7"),
    ("parabola", 7, 3, 6, "c2f7395ea81b0a2f454f2942f7f2b09ce349786608c0cd961abe86655d4b246a"),
    ("parabola", 7, 3, 7, "8929477a548ed9a1efcf13c62f4ecbe55efb7336c5fb414e3220c15ce4c66ba8"),
    ("parabola", 7, 4, 6, "21830cb078e00666299056ce2a104d4b5f1f95661ed823d3fa7a99607d9d2b67"),
    ("parabola", 7, 4, 7, "83569c957617ad58229d1a91afd50001defedf30abb2cc4eb1d1eb859c1206fc"),
    ("parabola", 7, 5, 6, "6f05771d4b0975fae6b04ac8cd26e6deddc1f312b8ba7e3f6232b7a95fb13217"),
    ("parabola", 7, 5, 7, "73bafe7360b6f23f69f83e6bb796a5125984f99222c7405489f5f9f88362c70e"),
    ("parabola", 7, 6, 7, "1704e199d8c276cdf58be70f32de8059e527dbc1669e5fa4b866b7162f2cf96f"),
]


@pytest.mark.parametrize("kind, n, i, j, digest", CORPUS)
def test_simulate_trace_digest(kind, n, i, j, digest, capsys):
    argv = ["simulate", "--kind", kind, "--i", str(i), "--j", str(j), "--n", str(n), "--trace"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
