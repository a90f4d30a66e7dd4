"""Byte identity of the exact layer's outputs, pinned by SHA-256 digests.

Each digest is of the UTF-8 text that the CLI artifacts are made of: the
canonical serialization of Y_n and of the unit forms, an equation's JSON
(keys sorted) and LaTeX, and a gauge derivation's JSON.  A refactor of
the exact layer must leave every one of them unchanged.  The third Picard
iterate's growth-fit norms (the `picard` verb's CSV) are pinned the same
way, for the three cases of acceptance criterion 9.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from dnls_hierarchy.algebra import GaussianRational, serialize_poly
from dnls_hierarchy.analysis import growth_exponent_fit
from dnls_hierarchy.gauge import derive_gauged
from dnls_hierarchy.hierarchy import build_hierarchy_equation, compute_Y, unit_form

pytestmark = pytest.mark.hash_order

ALPHA = GaussianRational(Fraction(-3, 7), Fraction(5, 2))


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _text(kind: str, n: int) -> str:
    if kind == "Y":
        return serialize_poly(compute_Y(n))
    if kind == "unit_form":
        return serialize_poly(unit_form(n))
    if kind == "gauged":
        return _json(derive_gauged(build_hierarchy_equation(2 * n - 1)).to_json())
    frame, fmt = kind.split(".")
    eq = build_hierarchy_equation(n, None if frame == "2^n" else ALPHA)
    return _json(eq.to_json()) if fmt == "json" else eq.latex()


DIGESTS: dict[str, dict[int, str]] = {
    "Y": {
        0: "6b948b850ba4996aa290305fd1827de0f110e11ad41e52b778d12917f3e22ed8",
        1: "1b5e8ff15794a05745ed664fa90301221e630ee158f3670d12d7679800563a39",
        2: "67b1e2520f7ffa58efe6ebceeb301b7e3b8ba87e2424ca1a95131295b4469a06",
        3: "d953bfb1878ff768ac7fc2e4b22caa4ddab96420186c9be8ee19fd53fd53bd45",
        4: "3dcce04ea4a6ef947f82d4ea8a4b7a37b08ddf757105b9811806c0a39e4ed713",
        5: "70e7cb0740762a0e951e6b606df054b5d05a87ba2716065cc47dacb08654e2de",
        6: "6be20cc111ad9c018cf91772dcc27b81733d60c41e5a5bdf370b6d7f782a676e",
        7: "66bbd920a8a57d8a22d98263d255bf88f75c32c3f3ad5146208048bb434728dd",
        8: "a1e89dd961f2a2aba8db889b965c7971d398767b08fe608cf0c2225659f0dbad",
        9: "5bce9e990009b2c06f78d153c8172f5623ddaa8635022277533cbd2029797362",
        10: "581bea283e0596efbc2f8b4f7d2b6954c4ba24a2438dab5332cc8830ad5278b2",
        11: "adb4d64c07fea97ac769993b00dba19ccbe6d12a373ea611ae06df0ac5e6d519",
        12: "7bace80d429e1dbab197f6654c966119c8925bb300d4ddafcec312c78564c785",
        13: "a71cd91242d0d6e79190d2dd35f1a786056d90d09df1967ab2ce3d6199bd2c34",
        14: "ddd4f3b406fcfc6eebc42236c4bc0a9ff8a329e559fced92e3de9aeef974468c",
        15: "cb026fae50fc3fa7a6552f658376c25919d01735181763788685e477b0e27b88",
        16: "6e2ca1d80851bafdbfc02f881ebd6bfcaeef3285405fe02e23e5839558417e89",
    },
    "2^n.json": {
        0: "d2f6bcbaaf23906925c5f49e8925579af2e0ffef50863752d98b2835a9a0e8b6",
        1: "a8297348a028e1ae0e4badd2d4298dec4baa33781713df1be5335621473e0581",
        2: "6f8dfeb3f5fc507a276d3a3ce7a95ed3821f95c0e339e4110eda6331378771e0",
        3: "4b64a68ad0b234024d494d1f1f6d8f582d5f2287ba39d60560aa3036acb2da60",
        4: "45dada029485ac5b0808722f75400e9fc6345a00acf1d5b42fc0110482d367af",
        5: "3fcc28e3273f086b9c36b17f0efa8a2d01d5ee63c0bd47224c29bf4b0c40e899",
        6: "cc9e17fa2c9630a2054409d67b277b9054da59de20a8d9f698b906c5831b159d",
        7: "67a279fd3f1d71f3795379215a6e57a160cf1c5dac045e594bf61f218a474277",
        8: "9167c9c7105b56be8bd9988be6205e7cd0bbff82c391fedc1d62d9980a935917",
        9: "91ed3c70110de9b1e83925b01837e8485cd435a6744fc4280dd98fae2b1bd565",
    },
    "2^n.latex": {
        0: "33925531046066327c520ecdede45eae48388181feec8f1f7a43648ddb10f0ee",
        1: "0e31dff76295825242f790b09d2a0306b941706d4514a821ede1b2f26b1c9d6e",
        2: "245fac3588a055a7157a7d9694a08070e45e234711c0dbb28b3b479136787eb7",
        3: "592c676d3df55fbcc78e32e2af135894f8c0f8474e7bee1481082dca404e1da9",
        4: "36c46675664018d763b5eea146b705ddd99c84964ca37e5b0d10a107d522a1d8",
        5: "fc16b2c4fd422a8cc33decd454edb2fc2cbeffac8f2135cb4429960d01ddc46e",
        6: "50f27a48d58eb475aa8da91ba53dc08aa81c14f99bd12f1970502acf853a02d1",
        7: "9187bed47fb576895b4a35635edc3e642fe32832be3447d762f8fdf1441b7a09",
        8: "697bb690bc303d6173aab822e6c868113dc648363748b2bf4ac901e6559c05d4",
        9: "5916f20c3e6d75572f769440a8a08494400666ee575a4c709c04e16165d2ae63",
    },
    "alpha.json": {
        0: "b14964b77b82c730079b1b8a82dd9a1656e20c5b2ed7e3c7cbed966ecca09faa",
        1: "99a48e250b7d9d1b93f1f5cda16b72e668da8d435e85a350a847d04bdd2e5fe8",
        2: "92a6e2e2ed5128d874cd89f2a32e7b26dfb66387af96f7cd4eb5c2ce73d38a87",
        3: "16615e4559b3cfe882a6e015c1ddaf843ccdd3f3ce2f120d8d05a2d77b836efa",
        4: "9d92b5bf42067459161b6059e6eeb4da7f1641411dc968a65378602e3a0474bf",
        5: "81d4a72812337d3b5762ca690c16d4a2c37fcc2c94eb112d39c2a50190acb366",
        6: "a8cbe15ea1c7ce1f069b2749b4fc332b151ee82f15ca5399a6ab4b4740aad91a",
        7: "77f69d6c5ed226ff199258e60b5da95345c0201e9f2b43cf5b96b98c6a9d8c95",
        8: "47338aaf5bad01bb3d2470940ddd5de95f2e0d7a9200a699ca92b7592608f4b4",
        9: "39cff0ebde274886e41a74e0867218ef791d42f1e02cd42ec108b7d9b29ebfc5",
    },
    "alpha.latex": {
        0: "6123d7a4335002349fa9485b5f337a90cdc25de2a05d8b43eb275bb732c3823b",
        1: "3d289b9d315d4f45b52546b5855d500ef076d59de286bca4277107a1c9e21ff8",
        2: "27ac3ddcd191460f435c4b5d4fdbbf457c8c1feb06dc38eb3d7c9687b9b2a171",
        3: "9a0798a09c1363e8274fea7d39aa67a777cd32f41d3a4b0f02f32968661f8c1d",
        4: "df66e15081d56413ea2f66ca03021a803d6ab601c5b860e8c12f5d50dc1b7a18",
        5: "cf7588afd15694faf7ceaf5de3471e761c0cb4ed5f3a880b70220a9abb17a323",
        6: "cf8b4c5a4c1ce5c2566cae28c8d58001e1ebbd892ee7060721fa883b3019c8d1",
        7: "5b3d038a4334d370366f690f9e2b41b433b40e998c6bd580d74eecd977c3a867",
        8: "85a8f262c0b25bcbc97341d633773703f7498bcd7db71a9a48f58e147043f89d",
        9: "d8f3b28495d0b445a37f188600ecc00aab791476bb7b7778958a9b187c1e82d1",
    },
    "unit_form": {
        1: "b9b9c57fa5c3b8763ef8e0fad114bfa193c044d5ce81f030c9c8ca824bc2aeed",
        2: "5f7afac6434705527e971e0268e1e3f6a7050cf7b42541d515e5010fbd2e5300",
        3: "1d281dc67f97e0741f73203525f8e7414a5af8d1545cd955ab137688aa4d0c0e",
        4: "98d4e79e9abc25d1552c8c9a245778c8e1adc514837134627e2768a1d19f58a5",
        5: "8f8bcfb4d3ad228e32f54c58ab3e8a6a6bd614249157e772e6fea2fe43889a54",
        6: "80796e55e25355e9704f6a01839dc29b18000416752f2fb3bdafc2e22d22916b",
        7: "25043011075b380d3d0e913a1d534b9b55c5e7cf2ca0cde2789fd1f7cc1d510c",
        8: "e77ef32517f83f143a8e2b7399714ee498dd35dcd888ba2b277e4705549a7b6d",
        9: "0ef87cb7fbc2c0728ff517c427af87f8220a717f4599be5f2e4275bf67416ccd",
    },
    "gauged": {
        1: "633f9b5e2cc2cd5bab5266c65e62ebfa3fb11e99b2b35f9be98ade1352cbacd1",
        2: "266c1db21c4f9de743931c61ddff83ee63bf21b086f8f173c207f18a80a694d1",
        3: "1743ee7c84f53e088804b8d060848282d80395083eef0f9ce4069bb8f88b328a",
        4: "c9f086a0d4c47f481db335a318d342f9cbdf2c9e6dad9c544b9f0a9726b8a54a",
        5: "e0e2fe1f03051c8fa9365afac5d150c303c6815b6818818386553be631c33ce1",
        6: "1b3e9e8f6f89f5981951b370eb7cadee0001ea899a681dbc63a1b7416b9a9953",
    },
}


@pytest.mark.parametrize("kind,n", [(k, n) for k, table in DIGESTS.items() for n in table])
def test_output_digest_is_pinned(kind, n):
    assert hashlib.sha256(_text(kind, n).encode()).hexdigest() == DIGESTS[kind][n]


PICARD_NORM_DIGESTS: dict[tuple[int, float, float], str] = {
    (2, 2.0, 0.5): "3f42b2869d17f0caa9856c69d63367cbe51e51f4ebf276f37b820b3f7b35216b",
    (2, 2.0, 1.0): "1003b3ef6cf863bdeb46039ec83361e5eab6f4078f09c7d5199e42b76185cfb5",
    (3, 2.0, 1.0): "3455402f4052914c1890a5c5055bdfb69425b81442029b23311370333ef765bf",
}


@pytest.mark.parametrize("j,r,s", list(PICARD_NORM_DIGESTS))
def test_picard_norms_digest_is_pinned(j, r, s):
    fit = growth_exponent_fit(j, s, r, [16, 32, 64, 128, 256])
    assert hashlib.sha256(repr(fit.norms).encode()).hexdigest() == PICARD_NORM_DIGESTS[j, r, s]
