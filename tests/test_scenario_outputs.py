"""Every named scenario's files, pinned byte for byte.

``run_point`` is replaced by a fake whose fields are fixed functions of
``(params, dims)``, so the test runs in seconds yet still
exercises the whole scenario layer: the grids, the fixed parameters, the
truncation handed to each sweep, the column selection, the Poisson table
and the CSV/JSON/manifest writers.
"""

import hashlib
import json

import pytest

import triring.cli as cli
from triring.observables import PointResult

# sha256 of each data file the scenarios write under fake_run_point at dims 4
DATA_SHA256 = {
    "fig2a.csv":
        "3ffe0f1590109a3d18cad6e4c29069e25489260dc6639305218189fc5fc4b25f",
    "fig2a.json":
        "4935e567b3a1edf5661a1b487866f7a40ed1ab3489fd636118c1cb786738b8e2",
    "fig2b.csv":
        "1663674b5777577224003debffc8dee2033340043374440b4772953146b2a9bc",
    "fig2b.json":
        "bbfb56a6a794f5a69f6aa0d8c8c2a1654fd46eb0277a141e5c82f5c90795d2c4",
    "fig2c.csv":
        "217aa919a3621c423868546ee2361c9bb61407ec16292797c10f2b32147e8872",
    "fig2c.json":
        "451f320dd9124993ad35f75b091d8aff49aad798497fb94a778cb76454f30302",
    "fig2c_inset.csv":
        "0c8dd61ed7697ed8f6965f7b7ec2dc65b5d35a43473d58e1d9b1d3ca51c04b60",
    "fig2c_inset.json":
        "7bb38e5879a6102fddbf4b5dc97958e5d326d540b3ba79050a5641b51b668a74",
    "fig2d.csv":
        "7b29b1381a83bdc8694010df4d757683c8ce9a3bc3c7206b4a8b92a5b321cb56",
    "fig2d.json":
        "90669233505a9c45224651b6f7b5ec1a3f336fb0cdb26622138f18a32e75372b",
    "fig2e.csv":
        "f0aed99fd0fd062f8039b35a86c058f5c7731e15b8af83f0cd9f1c1b28a78e78",
    "fig2e.json":
        "4583178803adeecd709051326a385c4aeb4ec4e37b2e23d901041b8a2b1078ed",
    "fig2f.csv":
        "00719465c7449f47cd9a4bf3a2978e703956592d9713f1dea67a214e87817159",
    "fig2f.json":
        "2d318373b6d5803f9418d9abd3b3cfe75a021e225c081b0baf52ae91e15aac93",
    "fig2f_inset.csv":
        "a4afd3ff1f8f932ed21cced4945d22acb6cf5ba73965c2d57a16af2e557013d6",
    "fig2f_inset.json":
        "edc9b52e62e554eefdaa43c18c79881fb693d10825b912e00cf89c29e5ba2e8e",
    "fig3ab.csv":
        "ab9837f4bd30272f5c1aebe52806083e677687c153b0b255c3734f31258c5226",
    "fig3ab.json":
        "9a8cdc1f865005be2fa3f56a2448cfc6e3db3e7142d068103d44f68b406691e3",
    "fig3c.csv":
        "c23e40e312c9e76d122090ed1101f827416a2aa00e39ac6713572dcfb8bde782",
    "fig3c.json":
        "df70e6b905dc55116987a24d6cb1a9bf19a2b281217adc1f39d66dda78ac9bab",
    "fig4.csv":
        "4ac9cf6bc9f4d023da05ef42ca548537114093c41dab9c351d6bd8dcbe3b57bd",
    "fig4.json":
        "a520d9c17f1801e1468b7a1974cb4b7d2ef4dbacd3b0cfd5cfcd7b67e89e3414",
    "fig5a.csv":
        "be954b2b1ee148f10ceb97cef3df0ba57ed390a82d2964bf0b4014650e40e7c7",
    "fig5a.json":
        "4cd713b4f0dbdabe16def5a5b3b540fc23744fa2a6760d1562566c594800820c",
    "fig5b.csv":
        "3cfdc5898afb45cac44257bafefe145993148856de0a69dac87e18593bd3b47b",
    "fig5b.json":
        "b678a6ba769ce76deff6e07210d406b65fd5fa42d31ae3b2a202f77e9e00153d",
    "fig5c.csv":
        "74514cc633a9d598386d2296b04d5f8a0748d018307c98742137fd219399da79",
    "fig5c.json":
        "526a10df54dbebc17ffe162fbe979841e7acd0f825fe90560cd8b7e73ca853e2",
    "smatrix_check.csv":
        "57fedd73d18504d93d9e637ffdb1c41143843cfbf540ef11a5e015adc9642c32",
    "smatrix_check.json":
        "aeb49c2b568bba865a5ee8c09c145d0182ddbf32510c9f0e0999de995adc24fd",
    "conditions_check.csv":
        "b743b4330fdecafe8e0ee3b08660b2e086a9db56d3fce12b96af0a500f63449d",
    "conditions_check.json":
        "9148efd988e97a7883dfbf5356e7d6f81e20614487346bbb92485c41cc460ede",
}

# sha256 of each manifest, re-dumped with sort_keys after dropping the
# run-dependent 'wall_time_s' and 'version'
MANIFEST_SHA256 = {
    "fig2a_manifest.json":
        "27609daec7c3a63685184ced8de79efdc245ef2c7cf8a6a7b1ca592b69550567",
    "fig2b_manifest.json":
        "8a847956a5eec6a148479c27bcd5ffa3a32d99c31d4a5ce99fa5ca981a8ace51",
    "fig2c_manifest.json":
        "ee1ebfd155b4048211de2d3764b74c8a85fcf909842069029a472595e35dbf63",
    "fig2c_inset_manifest.json":
        "af63d960921c8c134c952d213104342c630a9cda1703e8f84405e6ff30d99c72",
    "fig2d_manifest.json":
        "8f53c2fda701dfb6a21b9d1df50f9d24ad867ec405beefff4839325d5cba6de9",
    "fig2e_manifest.json":
        "752cd8080f8e9ea2da208db3989733370e8a24b5aba0b3c670d739dc33888d37",
    "fig2f_manifest.json":
        "56df584c341d7b15848c0c37dea7a999ed8b757923cc2374d49f59fb729f43b9",
    "fig2f_inset_manifest.json":
        "d215a3df493c4ec494a1d299f969bc62242ea97f8364799f9b9999d51970b320",
    "fig3ab_manifest.json":
        "39450a14bcb3e47b5073792a85522574662500e594478d4f6a19d6deda030d30",
    "fig3c_manifest.json":
        "3bdb98cfe28c657d3193e89a5c05f7a6209997287749a2b8b2642a43dae5c8e6",
    "fig4_manifest.json":
        "19d3ea2b209017dbf9dab098508e1a1fc8cf933d7db286c722f6b86ef3a58d06",
    "fig5a_manifest.json":
        "75c88f6b89a595248b521bffb264d5a0a4db269d19ff9a4bb63426fbd619cffc",
    "fig5b_manifest.json":
        "ba4741b31187e3419eedca505f83b60a94edd94ae53187ef0abb4d169e957cb6",
    "fig5c_manifest.json":
        "68dee099358d1bd7a3565afef458e9bbced7ebaf637dc559ba3ba61d45e097e9",
    "smatrix_check_manifest.json":
        "2de3b6d7c86cbec32e7b140eaea7a5e5fbda05fdc3c1dfdae4d3dae57fc04295",
    "conditions_check_manifest.json":
        "3b12c111d1fe87b9e6a5a497910e46d868d6b27ff50978d2cf46b56418fa1460",
}


def fake_run_point(params, dims=cli.DEFAULT_DIMS, directions="both",
                   convergence_check=False, strict=True):
    x = (params.delta_a + 2.0 * params.kappa_b + 3.0 * params.theta
         + params.j_ab + 0.25 * dims[0] + 0.5 * dims[1])
    t_fwd = 1.0 / (1.0 + x * x)
    t_bwd = 1.0 / (2.0 + x * x)
    g2_fwd, g2_bwd = 1.0 + x / 7.0, 2.0 - x / 11.0
    return PointResult(
        t_fwd=t_fwd,
        t_bwd=t_bwd,
        g2_fwd=g2_fwd,
        g2_bwd=g2_bwd,
        g3_fwd=g2_fwd * g2_fwd / 3.0,
        g3_bwd=g2_bwd * g2_bwd / 5.0,
        isolation=abs(t_fwd - t_bwd),
        ratio=abs((g2_fwd - g2_bwd) / (g2_fwd + g2_bwd)),
        p_m_fwd=tuple(t_fwd ** m / (m + 1) for m in range(min(5, dims[2]))),
        p_m_bwd=tuple(t_bwd ** m / (m + 2) for m in range(min(5, dims[0]))),
        n_a_fwd=0.3 * t_fwd,
        n_b_fwd=0.1 * t_fwd * (dims[1] - 1),
        n_c_fwd=0.2 * t_fwd,
        n_a_bwd=0.2 * t_bwd,
        n_b_bwd=0.1 * t_bwd * (dims[1] - 1),
        n_c_bwd=0.3 * t_bwd,
        residual_fwd=1e-13 * (1.0 + x * x),
        residual_bwd=2e-13 * (1.0 + x * x),
    )


def _manifest_digest(path) -> str:
    doc = json.loads(path.read_text())
    doc.pop("wall_time_s", None)
    doc.pop("version", None)
    text = json.dumps(doc, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def scenario_digests(out_dir) -> tuple[dict, dict]:
    """Run every scenario at dims 4 and digest what each one wrote."""
    data, manifests = {}, {}
    for name in cli.SCENARIO_NAMES:
        for path in cli.scenario(name, out_dir, dims=4, jobs=1):
            if path.name.endswith("_manifest.json"):
                manifests[path.name] = _manifest_digest(path)
            else:
                data[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return data, manifests


def test_every_scenario_output_is_pinned(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_point", fake_run_point)
    data, manifests = scenario_digests(tmp_path)
    assert data == DATA_SHA256
    assert manifests == MANIFEST_SHA256


def test_file_set_per_scenario(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_point", fake_run_point)
    stems = {
        name: [p.name for p in cli.scenario(name, tmp_path, dims=4, jobs=1)]
        for name in ("fig2c", "fig2f", "fig3")
    }
    assert stems["fig2c"] == [
        "fig2c.csv", "fig2c.json", "fig2c_manifest.json",
        "fig2c_inset.csv", "fig2c_inset.json", "fig2c_inset_manifest.json",
    ]
    assert stems["fig2f"][3] == "fig2f_inset.csv"
    assert stems["fig3"] == [
        "fig3ab.csv", "fig3ab.json", "fig3ab_manifest.json",
        "fig3c.csv", "fig3c.json", "fig3c_manifest.json",
    ]


@pytest.mark.parametrize("formats", [("csv",), ("json",)])
def test_formats_limit_files(tmp_path, monkeypatch, formats):
    monkeypatch.setattr(cli, "run_point", fake_run_point)
    files = cli.scenario("fig3", tmp_path, dims=4, jobs=1, formats=formats)
    suffix = f".{formats[0]}"
    assert [p.name for p in files] == [
        f"fig3ab{suffix}", "fig3ab_manifest.json",
        f"fig3c{suffix}", "fig3c_manifest.json",
    ]
