"""Translator frontend (loop lifting) and code generators (incl. Fig 7)."""

import numpy as np
import pytest

from repro.common.errors import TranslatorError
from repro.translator.codegen.cuda_c import CudaDatSpec, MemoryStrategy, generate_cuda
from repro.translator.codegen.openmp_c import generate_openmp_c
from repro.translator.codegen.python_host import generate_python_module
from repro.translator.driver import translate_app
from repro.translator.frontend import parse_app_full, parse_app_source

APP_SRC = """
from repro import op2

def main(mesh):
    op2.par_loop(K_SAVE, mesh.cells, mesh.q(op2.READ), mesh.qold(op2.WRITE))
    op2.par_loop(K_RES, mesh.edges,
                 mesh.x(op2.READ, mesh.e2n, 0),
                 mesh.x(op2.READ, mesh.e2n, 1),
                 mesh.res(op2.INC, mesh.e2c, 0))
    ops.par_loop(smooth, blk, [(0, n), (0, m)], u(ops.READ), v(ops.WRITE))
"""


class TestFrontend:
    def test_finds_all_loops(self):
        sites = parse_app_source(APP_SRC)
        assert [s.kernel for s in sites] == ["K_SAVE", "K_RES", "smooth"]

    def test_classifies_api(self):
        sites = parse_app_source(APP_SRC)
        assert sites[0].api == "op2"
        assert sites[2].api == "ops"

    def test_arg_extraction(self):
        sites = parse_app_source(APP_SRC)
        res = sites[1]
        assert res.args[0].access == "READ"
        assert res.args[0].map == "mesh.e2n"
        assert res.args[0].idx == "0"
        assert res.args[2].access == "INC"

    def test_direct_vs_indirect(self):
        sites = parse_app_source(APP_SRC)
        assert not sites[0].has_indirection
        assert sites[1].has_indirection

    def test_syntax_error_raises(self):
        with pytest.raises(TranslatorError):
            parse_app_source("def broken(:")

    def test_too_few_args_raises(self):
        with pytest.raises(TranslatorError):
            parse_app_source("op2.par_loop(K)")


class TestFrontendLifting:
    """Aliased imports, keyword arguments, wrappers, unliftable records."""

    def test_module_alias_import(self):
        sites = parse_app_source(
            "import repro.op2 as o2\n"
            "o2.par_loop(K, cells, d(o2.READ))\n"
        )
        assert len(sites) == 1
        assert sites[0].api == "op2"
        assert sites[0].kernel == "K"

    def test_from_import_alias(self):
        sites = parse_app_source(
            "from repro import ops as o\n"
            "o.par_loop(k, blk, [(0, 5)], u(o.READ), v(o.WRITE))\n"
        )
        assert sites[0].api == "ops"
        assert sites[0].ranges == "[(0, 5)]"
        assert [a.access for a in sites[0].args] == ["READ", "WRITE"]

    def test_keyword_arguments(self):
        sites = parse_app_source(
            "op2.par_loop(kernel=K_SAVE, iterset=mesh.cells)"
        )
        assert sites[0].kernel == "K_SAVE"
        assert sites[0].iterset == "mesh.cells"

    def test_name_keyword_becomes_hint(self):
        sites = parse_app_source(
            "ops.par_loop(k, blk, [(0, 5)], u(ops.READ), name='fluxes')"
        )
        assert sites[0].name_hint == "fluxes"
        assert sites[0].display_name == "fluxes"

    def test_distributed_comm_operand_skipped(self):
        sites = parse_app_source(
            "rm.par_loop(comm, K_RES, mesh.cells, q(op2.READ))"
        )
        assert sites[0].kernel == "K_RES"
        assert sites[0].iterset == "mesh.cells"

    def test_loop_wrapper_call_sites_lifted(self):
        src = (
            "from repro import ops\n"
            "class App:\n"
            "    def _loop(self, kernel, ranges, *args, name=None):\n"
            "        ops.par_loop(kernel, self.block, ranges, *args, name=name)\n"
            "    def step(self):\n"
            "        self._loop(k_pdv, self.rng, d(ops.READ), e(ops.WRITE),\n"
            "                   name='pdv')\n"
        )
        sites = parse_app_source(src)
        assert len(sites) == 1  # the wrapper's internal call is not double-counted
        assert sites[0].kernel == "k_pdv"
        assert sites[0].name_hint == "pdv"
        assert sites[0].enclosing == "App.step"
        assert [a.access for a in sites[0].args] == ["READ", "WRITE"]

    def test_prebound_sites_lifted_like_par_loop(self):
        src = (
            "from repro import ops as o\n"
            "import repro.op2 as o2\n"
            "class App:\n"
            "    def _loop(self, kernel, ranges, *args, name=None):\n"
            "        return o.loop(kernel, self.block, ranges, *args, name=name)\n"
            "    def step(self):\n"
            "        o2.loop(K_RES, edges, q(o2.READ, e2c, 0), res(o2.INC, e2c, 1))()\n"
            "        self._site('pdv', lambda: self._loop(k_pdv, self.rng, d(o.READ),\n"
            "                                             name='pdv'))()\n"
            "        timer.loop(K, s, d(o2.READ))\n"  # not an API module: no site
        )
        op2_site, ops_site = parse_app_source(src)
        assert (op2_site.api, op2_site.kernel, op2_site.iterset) == ("op2", "K_RES", "edges")
        assert [(a.map, a.idx, a.access) for a in op2_site.args] == [
            ("e2c", "0", "READ"), ("e2c", "1", "INC")]
        assert (ops_site.api, ops_site.kernel, ops_site.iterset) == ("ops", "k_pdv", "self.block")
        assert ops_site.enclosing == "App.step" and ops_site.name_hint == "pdv"

    def test_starred_descriptors_recorded_not_dropped(self):
        result = parse_app_full(
            "def run(cells, k, descs):\n"
            "    op2.par_loop(k, cells, *descs)\n"
        )
        assert result.sites == []
        (u,) = result.unliftable
        assert u.code == "OPL900"
        assert u.lineno == 2
        assert u.enclosing == "run"
        assert "*args" in u.reason

    def test_double_star_kwargs_recorded(self):
        result = parse_app_full("op2.par_loop(K, s, **extra)")
        assert result.sites == []
        assert result.unliftable[0].code == "OPL900"

    def test_enclosing_and_in_loop_metadata(self):
        src = (
            "def iterate(n):\n"
            "    for _ in range(n):\n"
            "        op2.par_loop(K, s, d(op2.READ))\n"
            "op2.par_loop(K2, s, d(op2.WRITE))\n"
        )
        inner, outer = parse_app_source(src)
        assert inner.enclosing == "iterate" and inner.in_loop
        assert outer.enclosing == "<module>" and not outer.in_loop


class TestCudaCodegen:
    """Paper Fig 7: OP_ACC macros, device user function, wrapper variants."""

    def _site(self):
        return parse_app_source(
            "op2.par_loop(res_calc, mesh.edges, coords(op2.READ, m, 0))"
        )[0]

    def test_nosoa_plain_indexing(self):
        code = generate_cuda(self._site(), [CudaDatSpec("coords", 2)], MemoryStrategy.NOSOA)
        assert "#define OP_ACC_COORDS(x) (x)" in code
        assert "&coords[2*gbl_idx]" in code
        assert "__shared__" not in code

    def test_soa_stride_macro(self):
        code = generate_cuda(self._site(), [CudaDatSpec("coords", 2)], MemoryStrategy.SOA)
        assert "#define OP_ACC_COORDS(x) ((x)*coords_stride)" in code
        assert "__constant__ int coords_stride;" in code
        assert "&coords[gbl_idx]" in code

    def test_staged_shared_memory(self):
        code = generate_cuda(
            self._site(), [CudaDatSpec("coords", 2)], MemoryStrategy.STAGE_NOSOA
        )
        assert "__shared__ double coords_scratch[2 * BLOCK];" in code
        assert "__syncthreads();" in code
        assert "&coords_scratch[2*threadIdx.x]" in code

    def test_device_function_present(self):
        code = generate_cuda(self._site(), [CudaDatSpec("coords", 2)])
        assert "__device__ void res_calc_gpu(double *coords)" in code
        assert "__global__ void res_calc_wrapper" in code

    def test_all_strategies_distinct(self):
        site = self._site()
        dats = [CudaDatSpec("coords", 2)]
        outputs = {s: generate_cuda(site, dats, s) for s in MemoryStrategy}
        assert len(set(outputs.values())) == 3


class TestOpenmpCodegen:
    def test_direct_loop_plain_parallel_for(self):
        site = parse_app_source("op2.par_loop(update, cells, q(op2.RW))")[0]
        code = generate_openmp_c(site)
        assert "#pragma omp parallel for" in code
        assert "op_plan" not in code

    def test_indirect_loop_coloured(self):
        site = parse_app_source(
            "op2.par_loop(res, edges, r(op2.INC, m, 0))"
        )[0]
        code = generate_openmp_c(site)
        assert "op_plan_get" in code
        assert "ncolors" in code


class TestPythonCodegen:
    def test_generated_module_executes_equivalently(self):
        """Generated host code must compute the same as the library."""
        site = parse_app_source(
            "op2.par_loop(inc_k, edges, acc(op2.INC, m, 0), x(op2.READ, m, 1))"
        )[0]
        src = generate_python_module(site)
        namespace = {}
        exec(compile(src, "<gen>", "exec"), namespace)

        n = 6
        conn = np.asarray([[i, i + 1] for i in range(n)])
        x = np.arange(n + 1, dtype=float).reshape(-1, 1)
        acc = np.zeros((n + 1, 1))

        def kernel_vec(a, xs):
            a[:, 0] += xs[:, 0]

        namespace["run"](kernel_vec, [acc, x], [conn[:, 0], conn[:, 1]], n)
        expect = np.zeros(n + 1)
        for i in range(n):
            expect[i] += i + 1
        np.testing.assert_allclose(acc[:, 0], expect)

    def test_header_documents_loop(self):
        site = parse_app_source("op2.par_loop(k, s, d(op2.READ))")[0]
        src = generate_python_module(site)
        assert "Auto-generated" in src


class TestDriver:
    def test_translate_writes_files_and_manifest(self, tmp_path):
        app = tmp_path / "app.py"
        app.write_text(APP_SRC)
        out = tmp_path / "gen"
        result = translate_app(app, out)
        assert set(result.loops) == {"K_SAVE", "K_RES", "smooth"}
        assert (out / "K_RES_kernel.py").exists()
        assert (out / "K_RES_kernel.cu").exists()
        assert (out / "K_RES_omp.c").exists()
        assert (out / "translation_manifest.json").exists()

    def test_target_selection(self, tmp_path):
        app = tmp_path / "app.py"
        app.write_text("op2.par_loop(k, s, d(op2.READ))")
        result = translate_app(app, tmp_path / "gen", targets=("cuda",))
        assert all(str(f).endswith((".cu", ".json")) for f in result.files)

    def test_unknown_target_rejected(self, tmp_path):
        app = tmp_path / "app.py"
        app.write_text("op2.par_loop(k, s, d(op2.READ))")
        with pytest.raises(TranslatorError):
            translate_app(app, tmp_path / "gen", targets=("sycl",))
