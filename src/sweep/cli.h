/**
 * @file
 * The `vortex_sweep` command-line interface, as a library entry point so
 * the CLI-compat tests can drive it in-process.
 *
 * Grammar (docs/FABRIC.md has the fabric workflows):
 *
 *   vortex_sweep run [options]             execute a campaign
 *   vortex_sweep cache list|merge|prune    result-cache maintenance
 *   vortex_sweep serve --listen PATH       the fabric submission service
 *   vortex_sweep submit --socket PATH      submit a spec to a service
 *   vortex_sweep specs list|fields|dump    spec/preset introspection
 *
 * Every pre-subcommand flag spelling (`vortex_sweep --preset fig18`,
 * `--cache-prune`, `--list`, `--fields`, `--dump-spec`, ...) still works
 * as a legacy alias: an argv whose first element is not a subcommand
 * word is parsed exactly as the flat flag grammar, pinned by the compat
 * tests in tests/test_fabric.cpp. This legacy grammar is a
 * compatibility shim scheduled for removal on 2027-04-01; new scripts
 * use the subcommands.
 */

#pragma once

#include <string>
#include <vector>

namespace vortex::sweep {

/**
 * Run the vortex_sweep CLI over @p args (argv without the program name)
 * and return the process exit code. Never throws: fatal() diagnostics
 * are printed to stderr and become exit code 1, usage errors exit 2.
 */
int cliMain(const std::vector<std::string>& args);

} // namespace vortex::sweep
