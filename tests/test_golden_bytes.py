"""Golden bytes: every output file of the shipped configs, by sha256.

The digests pin the exact bytes `chirospec spectrum` and `chirospec
regime-map` write for `configs/*.yaml`, at one and at two worker processes.
A change that alters them on purpose updates this table and says why.
`run_record.txt` is left out: it embeds the wall time.  Two benchmark seeds
are checked against perfbench's recorded digests as well.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from chirospec.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
PERFBENCH_DIR = CONFIG_DIR.parent / "perfbench"
#: Edge seeds of the benchmark: at seed 5 a spectrum digest once moved where the shipped
#: configs kept theirs, and seed 57's map has no distinguishable cell.
BENCHMARK_SEEDS = (5, 57)
COMMANDS = {
    "entangled_probe": "spectrum",
    "classical_probe": "spectrum",
    "regime_map": "regime-map",
}

GOLDEN = {
    "entangled_probe": {
        "curve_left_000.csv": "75cda066c72fe405f81f07ddff9f24a27c596d089ddf05a84d9d0eacdf364bfe",
        "curve_left_001.csv": "503a666eb9f73050bd2c7d1b56a765d96ad49e8026e66917b328f8d16ac7ea3b",
        "curve_left_002.csv": "b202d60e4cadaf287f02ede9b9a7c32b2d1d548cd6142a7d4d564cf5fb11a2be",
        "curve_left_003.csv": "b430e3a969b149faa08f47b40128852af4ef721972156d453efb3bc3f06c971b",
        "curve_left_004.csv": "e01f1c0dca42107fe7bdd6bd6b538e33feb39549ea009ca41b735f8f78b25647",
        "curve_left_005.csv": "1048eefab2eff51125fc44de96afa509f35359d1e7924576ad8f820221c932da",
        "curve_left_006.csv": "88cf0efadda24906d613f88a3ea7ade369fcc86fdac2c6e54fe1a9f6e1eeaad2",
        "curve_left_007.csv": "ec7735d87e21e52462c7b2fd7ff4bfa183827bba55481dc1c6c4dd7af24f0f15",
        "curve_left_008.csv": "d861d11943b5da49e65e434ba32ccb2ab7a91227742ee79b9b084f1bb3f86a01",
        "curve_right_000.csv": "9fec34aa840ce68a23c4dda9e94f8dd71563814da9e4268bca049a289c07a75c",
        "curve_right_001.csv": "8a30a197955fe587e8ce66dabd935b9282a30db2e6c7f0c10f68c3a2a049c692",
        "curve_right_002.csv": "158aae3a8fabed5cee3cb3a62fe697272dd04729e5780433914cac697b081d42",
        "curve_right_003.csv": "6352786752c577d7b1887f43bf2610023dd47f4fac1383981aac2e91920408c9",
        "curve_right_004.csv": "5d3b03e6f7af7ceb5396e88adbd6001d11bded884a018cc0b77433b35cee034f",
        "curve_right_005.csv": "835921615a4b990ba8cb85ae901dcdd166bcc3ff27481a135f70ff333d31847c",
        "curve_right_006.csv": "18a6cdb89d6810d24f999521ea7343af306c1cb31b975e3a286bc9f94f4b71a8",
        "curve_right_007.csv": "617f9b885a3e7de57295a8db9e2d5167def34e99f48d922b8b92a583136081f8",
        "curve_right_008.csv": "dc4f0f7c594f458b882e1628c9fe5effe8375fff9249b934c51eedce733b76a8",
        "manifest.txt": "dae884e4640acb4c4d459802870bfe90b272cd2396326f61ea6e590ce411995c",
    },
    "classical_probe": {
        "curve_left_000.csv": "c84cfadc55ec58d83460ef15f1e1adbd6e8d5b1f0b3d74570204904b6945706b",
        "curve_left_001.csv": "3d2041ec19dbfad07a555ae0b1286db6895ead2fd9c00db3570e2fff113a59e6",
        "curve_left_002.csv": "6d84b4c4b66d4e0ed626fc997e822ec318da01cc1885667e1ed3dfa333d6bf2e",
        "curve_left_003.csv": "b49d7309616bf02afde203fcf5681c0d51109a24a80d2a8d99b182e819029a46",
        "curve_left_004.csv": "ad400c1837dc048c04ca88a14dc08c84589ed257ce7ad573502a49317ba3af82",
        "curve_left_005.csv": "93358414e75a0a22cf22000786a2f4f6a61dc7cbe21c5554c3c52db01c294aeb",
        "curve_left_006.csv": "9d1e55aeb9e54841ca2323053b6cb662d59564b9b9bcf53e0c4de23e3e17824a",
        "curve_left_007.csv": "a765a753f4e7bb344b17be1ef521fa561b4b1486260f1ff09ea26232a76d6735",
        "curve_left_008.csv": "4f2839c58204c6aad26aeb648fca133e7e72f36fb0e686a37789976128a1ab23",
        "curve_left_009.csv": "e9eae0be8bd946925cd5e342e37538f475434f7e6c14f387f1a63fd8e92e02e2",
        "curve_left_010.csv": "e9eae0be8bd946925cd5e342e37538f475434f7e6c14f387f1a63fd8e92e02e2",
        "curve_left_011.csv": "4f2839c58204c6aad26aeb648fca133e7e72f36fb0e686a37789976128a1ab23",
        "curve_left_012.csv": "a765a753f4e7bb344b17be1ef521fa561b4b1486260f1ff09ea26232a76d6735",
        "curve_left_013.csv": "9d1e55aeb9e54841ca2323053b6cb662d59564b9b9bcf53e0c4de23e3e17824a",
        "curve_left_014.csv": "93358414e75a0a22cf22000786a2f4f6a61dc7cbe21c5554c3c52db01c294aeb",
        "curve_left_015.csv": "ad400c1837dc048c04ca88a14dc08c84589ed257ce7ad573502a49317ba3af82",
        "curve_left_016.csv": "b49d7309616bf02afde203fcf5681c0d51109a24a80d2a8d99b182e819029a46",
        "curve_left_017.csv": "6d84b4c4b66d4e0ed626fc997e822ec318da01cc1885667e1ed3dfa333d6bf2e",
        "curve_left_018.csv": "3d2041ec19dbfad07a555ae0b1286db6895ead2fd9c00db3570e2fff113a59e6",
        "curve_left_019.csv": "c84cfadc55ec58d83460ef15f1e1adbd6e8d5b1f0b3d74570204904b6945706b",
        "curve_right_000.csv": "10aae2b6401b1ff01ec788955a2c9254f8dad4e32b5140b94036840eee16b711",
        "curve_right_001.csv": "f426c05cd3fff97f99920cd7c88e7c95cea133b1910209ffb20a5a30f372ab91",
        "curve_right_002.csv": "e158b856b9dc7a5e281595c0d346d375594fdfbeba547652ea7fba018701babd",
        "curve_right_003.csv": "9d1d9fac2207f0c747d591eebddc729477ea7c9b0ba15f165818777a74628867",
        "curve_right_004.csv": "fefc047963e9513b22e41980026d575bbcf1ed4ab743af46b9c14c717377b357",
        "curve_right_005.csv": "bcca4753b130b52d4d4e66797282dc53376e669f1826fccb30ed0ed144d082e8",
        "curve_right_006.csv": "f59c7310f88e39182efa60b727aed17ad8643e98b89f8ba2acb330de4d9492a5",
        "curve_right_007.csv": "5e4454fe317d66e48b916bae5629e3db829b617ae2ef442fe51946f15a8c8e23",
        "curve_right_008.csv": "8e55663fea81431d2fb5e999ec958e40769282c8e41fc9ddb5c91faed6dae2e6",
        "curve_right_009.csv": "b6c6dcc7de9c656f6b42558bdda553ead55b0a71397b6d966834f70fe8f176a4",
        "curve_right_010.csv": "b6c6dcc7de9c656f6b42558bdda553ead55b0a71397b6d966834f70fe8f176a4",
        "curve_right_011.csv": "8e55663fea81431d2fb5e999ec958e40769282c8e41fc9ddb5c91faed6dae2e6",
        "curve_right_012.csv": "5e4454fe317d66e48b916bae5629e3db829b617ae2ef442fe51946f15a8c8e23",
        "curve_right_013.csv": "f59c7310f88e39182efa60b727aed17ad8643e98b89f8ba2acb330de4d9492a5",
        "curve_right_014.csv": "bcca4753b130b52d4d4e66797282dc53376e669f1826fccb30ed0ed144d082e8",
        "curve_right_015.csv": "fefc047963e9513b22e41980026d575bbcf1ed4ab743af46b9c14c717377b357",
        "curve_right_016.csv": "9d1d9fac2207f0c747d591eebddc729477ea7c9b0ba15f165818777a74628867",
        "curve_right_017.csv": "e158b856b9dc7a5e281595c0d346d375594fdfbeba547652ea7fba018701babd",
        "curve_right_018.csv": "f426c05cd3fff97f99920cd7c88e7c95cea133b1910209ffb20a5a30f372ab91",
        "curve_right_019.csv": "10aae2b6401b1ff01ec788955a2c9254f8dad4e32b5140b94036840eee16b711",
        "manifest.txt": "33661e8141dc622496a45a99e6f25a2fa58a43841b756167acfc1e99bcc96656",
    },
    "regime_map": {
        "legend.csv": "2d07982367823e04295517f54d31141951cfcc2b148c3d97ff1b61544d20615d",
        "regime_map.csv": "a77688e85b44c0e304511fd9f3af02015789d2f0045b267a603964292de1d259",
    },
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_shipped_config_bytes(tmp_path, name, threads):
    out = tmp_path / "out"
    argv = [COMMANDS[name], "-c", str(CONFIG_DIR / f"{name}.yaml"), "--out", str(out)]
    assert main(argv + ["--threads", threads]) == 0
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.iterdir()
        if p.name != "run_record.txt"
    }
    assert written == GOLDEN[name]


def perfbench_module(name):
    """Load ``perfbench/<name>.py`` from its file, leaving ``sys.path`` as it is."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", BENCHMARK_SEEDS)
def test_benchmark_seed_digests(tmp_path, seed):
    """Each command's digest at a benchmark seed, against ``perfbench/reference_hashes.json``.

    The inputs come from ``perfbench/gen.py`` and the digest rule from
    ``perfbench/check.py``; every command runs in process at one worker.
    Like the golden table, the recorded digests are host-specific (README).
    """
    gen, check = perfbench_module("gen"), perfbench_module("check")
    table = check.load_reference()
    for name, text in gen.make_configs(seed).items():
        cfg, out = tmp_path / f"{name}.yaml", tmp_path / name
        cfg.write_text(text, encoding="utf-8")
        assert main([check.COMMANDS[name], "-c", str(cfg), "--out", str(out), "--threads", "1"]) == 0
        assert check.digest(check.file_hashes(out)) == check.reference_digest(table, name, seed)
