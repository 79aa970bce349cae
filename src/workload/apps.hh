/**
 * @file
 * The Table II application suite: twelve synthetic mobile apps whose
 * thread structure, burst shapes and demand levels are tuned so the
 * characterization results land in the bands the paper reports
 * (Tables III-V, Figs. 4/5/7-13).
 *
 * Latency-oriented: pdf_reader, video_editor, photo_editor, bbench,
 * virus_scanner, browser, encoder.
 * FPS-oriented: angry_bird, eternity_warrior2, fifa15, video_player,
 * youtube.
 */

#ifndef BIGLITTLE_WORKLOAD_APPS_HH
#define BIGLITTLE_WORKLOAD_APPS_HH

#include <string>
#include <vector>

#include "workload/app_model.hh"

namespace biglittle
{

AppSpec pdfReaderApp();
AppSpec videoEditorApp();
AppSpec photoEditorApp();
AppSpec bbenchApp();
AppSpec virusScannerApp();
AppSpec browserApp();
AppSpec encoderApp();
AppSpec angryBirdApp();
AppSpec eternityWarrior2App();
AppSpec fifa15App();
AppSpec videoPlayerApp();
AppSpec youtubeApp();

/** All twelve apps in Table II order (a table built once). */
const std::vector<AppSpec> &allApps();

/** The seven latency-oriented apps (Fig. 4 / Fig. 12). */
const std::vector<AppSpec> &latencyApps();

/** The five FPS-oriented apps (Fig. 5 / Fig. 13). */
const std::vector<AppSpec> &fpsApps();

/** Look an app up by its spec name; fatal() if unknown. */
const AppSpec &appByName(const std::string &name);

} // namespace biglittle

#endif // BIGLITTLE_WORKLOAD_APPS_HH
