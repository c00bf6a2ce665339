"""Byte-identity gate for certificate JSON.

Each row is an input, a search budget and the sha256 of ``to_json()`` of its
certificate, recorded before the parity layer stopped enumerating spans.  The
corpus covers n = 4..8 with pure-braid input (both k) and ``--gnk`` input in
k = 3 and k = 4, at budgets 0, 1 and 2.  A change that alters any certificate
byte, including key order or formatting, fails here.
"""

import hashlib

import pytest

from braidcert.gnk import parse_gnk_word
from braidcert.pbraid import parse_pb_word
from braidcert.switches import gnk_report, unknotting_report

# (input kind, n, k for --gnk input, word, budget, sha256 of to_json())
CORPUS = [
    ("pb", 4, 3, "b14 B13 B23 B24", 0, "e7140692c9873bf98bfcd7a0dba59ce5ae724a1ba752f19a46e6f182d30a39b5"),
    ("pb", 4, 3, "b14 B13 B23 B24", 1, "72356ecba553f94fdabb0900453897c49fb9f9c17551d19ba292783797909c28"),
    ("pb", 4, 3, "b14 B13 B23 B24", 2, "772c5bcac0d85a9a7cca6473d65c80c024266b94d095735edee92752fb62384f"),
    ("gnk", 4, 3, "a134 a234 a124 a123 a134 a123 a124 a234", 0, "688a589c686bd92c4553f7fe338e66124a2372bccbfb4fb14ac82cce0251f03f"),
    ("gnk", 4, 3, "a134 a234 a124 a123 a134 a123 a124 a234", 1, "366372596de411546b688c6038ff7dd6e96c32c7de84afc436b3ad544b8c34f9"),
    ("gnk", 4, 3, "a134 a234 a124 a123 a134 a123 a124 a234", 2, "45e24c5622dcb7fe31446b7c8368fe9fb98a35b3380a29f699954a9684141aea"),
    ("gnk", 4, 4, "a1234 a1234", 0, "f150846a0a64dd4c02cb2deb609eb8820106f36a515e2607f7573cf4bb156ab2"),
    ("gnk", 4, 4, "a1234 a1234", 1, "7a3b0cf1bed70bb5a6ccb3b21f91faf82a0103e2318e28c60a937956c8fb3be7"),
    ("gnk", 4, 4, "a1234 a1234", 2, "cec9d19279b2cc76736292ff415ebad672d2f1bf478dbd4bcbb0f7e3e088b2da"),
    ("pb", 5, 3, "B23 B25 b14", 0, "09fe0758393f7f03687557a2a83fa58065bbff2b88f54774a1d2c7fe19f33e12"),
    ("pb", 5, 3, "B23 B25 b14", 1, "9e2b8e7a8ad364503072feb580562355069d6ca0d63267a4dbd9d15da9b674b8"),
    ("pb", 5, 3, "B23 B25 b14", 2, "e406f8e8321df13ce1b9c0d9bf5f2f93213453d647c3dead53915f667f6b4718"),
    ("gnk", 5, 3, "a234 a145 a235 a245 a234 a245 a235 a145", 0, "cf8382ebfd550bb7c2b4b3e8424b4dc0408bed6b1cdd35969852a51862767bea"),
    ("gnk", 5, 3, "a234 a145 a235 a245 a234 a245 a235 a145", 1, "0c9d258d1f3ab23d17792403348d993e1b9de9023fee777ab59a1c2fb9e8db7b"),
    ("gnk", 5, 3, "a234 a145 a235 a245 a234 a245 a235 a145", 2, "5e69292451d0a73d85d17f0b47c28c53e4287db3ef059639a35b86d11b295fd4"),
    ("gnk", 5, 4, "a1245 a1235 a1345 a2345 a1245 a2345 a1345 a1235", 0, "20b80cc815417729e7a091a6163987ec7821dc3be1e0b27f011ada6f4106d446"),
    ("gnk", 5, 4, "a1245 a1235 a1345 a2345 a1245 a2345 a1345 a1235", 1, "bb2358629e6666b83ab4cf654a8b435cf2f4bd11d36e580b61b6bf2dfcd47d12"),
    ("gnk", 5, 4, "a1245 a1235 a1345 a2345 a1245 a2345 a1345 a1235", 2, "d6d64a74c71eb3f908e48604a6fb28c6bca1e1de2c22dcfa066770fcf17a02d1"),
    ("pb", 6, 3, "b16 B34 b26", 0, "fe1256a99dae9dc67f80527c90254a1e45f8e061a0aa5fa2ca292bcc4c2c2cfd"),
    ("pb", 6, 3, "b16 B34 b26", 1, "78d0cc09186af43e8aa85606b8e55bff18658d9f52ae776e143802f6a4f52cb4"),
    ("pb", 6, 3, "b16 B34 b26", 2, "e44b8ba65f00682e0b91b9a86a52515476908236a27e148d4a01aeed025494ea"),
    ("gnk", 6, 3, "a256 a236 a245 a356 a245 a236 a256 a356", 0, "8560a252ee36e160e153606faa5795888975d46f335fa0c2a5fda8e27f54aee8"),
    ("gnk", 6, 3, "a256 a236 a245 a356 a245 a236 a256 a356", 1, "8e295f2cb2dbc264adca6a7314fc7bab1d477e6cc494443efaceb256ec1d50c4"),
    ("gnk", 6, 3, "a256 a236 a245 a356 a245 a236 a256 a356", 2, "0bb164aec51c05111bf04cf651a9ba2535d56c9c0a8c689bb74492a78e9a8e14"),
    ("gnk", 6, 4, "a1456 a1256 a1456 a2456 a1245 a2456 a1256 a1245", 0, "415aab2ee62c84d8e1bae1caf53546c5cf318ac2ff21d9f03eea0fe569f98d60"),
    ("gnk", 6, 4, "a1456 a1256 a1456 a2456 a1245 a2456 a1256 a1245", 1, "b184463877ff9da3c8c8355601840fb5443e8458e1d9a75b757201a4f5670ec0"),
    ("gnk", 6, 4, "a1456 a1256 a1456 a2456 a1245 a2456 a1256 a1245", 2, "5b7ad9c20496b3ed241d1f49f93655faa712596ddfabfc6b8f20a28462998845"),
    ("pb", 7, 3, "b56 b37", 0, "314664bc89a4a1fa2fa4957e6d1ea198ff236b858c7105e78d86130ecaea9f14"),
    ("pb", 7, 3, "b56 b37", 1, "b22eb8b38d5fb8b4b700300b77c0d83ca7bc2b35c171f6596c705d70d51bccc1"),
    ("pb", 7, 3, "b56 b37", 2, "03e69622bc4792d5b1e28074693ff289ee5261677caac932fad44ae6455c27b7"),
    ("gnk", 7, 3, "a126 a457 a367 a126 a357 a457 a357 a367", 0, "3888c7debb74f863bdf6620c15a4c5aaf22f0ac589bfbf0c0abf9746ae722163"),
    ("gnk", 7, 3, "a126 a457 a367 a126 a357 a457 a357 a367", 1, "702d29653106bb8f3cab4aecc07a89f8fcdaa1913591b1596326e1c82989dd65"),
    ("gnk", 7, 3, "a126 a457 a367 a126 a357 a457 a357 a367", 2, "1a93e37a55e0e550e29ab749c012f2c4d3ff7445d0ac6bf7087cbf49fba687a7"),
    ("gnk", 7, 4, "a1356 a3567 a1367 a1356 a1235 a1367 a3567 a1235", 0, "e551a09ed0d53cae366b092de7f9b0a91141ce1b955d95a9576f47ed5d1aff26"),
    ("gnk", 7, 4, "a1356 a3567 a1367 a1356 a1235 a1367 a3567 a1235", 1, "6d94b857941e5686b2985f2b81757a30c186913bba76496ea809b2c04149b279"),
    ("gnk", 7, 4, "a1356 a3567 a1367 a1356 a1235 a1367 a3567 a1235", 2, "ce36d356e9218ac6d66ca9bf5d48c93633573a82065ae0d7ca7d3eb6d04855d4"),
    ("pb", 8, 3, "b18 b67", 0, "d4e5e53d6be425413224d428dbbaebe2b3f45356b8c4e78122cdf96a0bcd7ac2"),
    ("pb", 8, 3, "b18 b67", 1, "65eec21c679ea8426a052677c9556c72415ba7700614387dbda99ff7b3949134"),
    ("pb", 8, 3, "b18 b67", 2, "37a1fa7e203829959763ab7b1cc90e1d27a2f3c569c99ef166f2cf454b40f0d9"),
    ("gnk", 8, 3, "a268 a356 a256 a356 a357 a268 a357 a256", 0, "a1fc1114923e847a7a02fba8472baa1ac843e2511323ea70b447ab973e3645fa"),
    ("gnk", 8, 3, "a268 a356 a256 a356 a357 a268 a357 a256", 1, "af9922f5408b5bc32cfa1c6d9fa9d98247017da215ba7a3bd97d034525eeefc9"),
    ("gnk", 8, 3, "a268 a356 a256 a356 a357 a268 a357 a256", 2, "5e3f0c0b919df6a3e92477804d4f9d65acdee2868d9f0798195e68a4417d0522"),
    ("gnk", 8, 4, "a5678 a1247 a1467 a1457 a1247 a1457 a1467 a5678", 0, "18643caf993114d226b6f968643dc96d6acacdb87fecb51ca50883ba157a907d"),
    ("gnk", 8, 4, "a5678 a1247 a1467 a1457 a1247 a1457 a1467 a5678", 1, "2b43e8072cc169d4dcb17ae2efffab70037492524d59eb088fc885e8ea699eed"),
    ("gnk", 8, 4, "a5678 a1247 a1467 a1457 a1247 a1457 a1467 a5678", 2, "218b1c3387ff1b877ffce446b34dfcc263fa451e5a71cf15431d53c8de9fbf4a"),
]


@pytest.mark.parametrize("kind, n, k, word, budget, digest", CORPUS)
def test_certificate_json_digest(kind, n, k, word, budget, digest):
    if kind == "pb":
        cert = unknotting_report(parse_pb_word(word, n), budget=budget)
    else:
        cert = gnk_report(parse_gnk_word(word, n, k), budget=budget)
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == digest
