#ifndef COLOSSAL_TESTS_METRICS_SCRAPE_H_
#define COLOSSAL_TESTS_METRICS_SCRAPE_H_

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace colossal {

// The value of counter or gauge `name` as an operator scrapes it: read
// from the registry's text exposition. MetricsRegistry::CounterValue
// reads 0 for a name nothing registered, so a misspelled name would pass
// any assertion that expects 0; a name missing from the exposition fails
// the test here instead.
inline int64_t Scrape(const MetricsRegistry& metrics,
                      const std::string& name) {
  std::string text = "\n";
  text += metrics.RenderText();
  const size_t at = text.find("\n" + name + " ");
  if (at == std::string::npos) {
    ADD_FAILURE() << "no metric named " << name << " in the exposition";
    return -1;
  }
  return std::stoll(text.substr(at + name.size() + 2));
}

}  // namespace colossal

#endif  // COLOSSAL_TESTS_METRICS_SCRAPE_H_
