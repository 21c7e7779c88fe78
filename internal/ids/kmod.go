package ids

import (
	"fmt"
	"sort"
)

// ModuleRegistry models the kernel's loaded-module list (/proc/modules
// on the rover). The rootkit attack of §5.1.3 loads a module that
// intercepts read(); the custom security task detects it by comparing
// the list against an expected profile.
type ModuleRegistry struct {
	loaded map[string]bool
}

// NewModuleRegistry starts with the given benign modules loaded.
func NewModuleRegistry(benign ...string) *ModuleRegistry {
	r := &ModuleRegistry{loaded: map[string]bool{}}
	for _, m := range benign {
		r.loaded[m] = true
	}
	return r
}

// Insert loads a module (the rootkit's insmod).
func (r *ModuleRegistry) Insert(name string) { r.loaded[name] = true }

// Remove unloads a module.
func (r *ModuleRegistry) Remove(name string) { delete(r.loaded, name) }

// ModuleChecker is the expected-profile comparator.
type ModuleChecker struct {
	expected map[string]bool
}

// NewModuleChecker snapshots the registry's current state as the
// expected profile.
func NewModuleChecker(r *ModuleRegistry) *ModuleChecker {
	c := &ModuleChecker{expected: map[string]bool{}}
	for m := range r.loaded {
		c.expected[m] = true
	}
	return c
}

// Check returns the modules present but not expected (potential
// rootkits) and the expected modules that disappeared.
func (c *ModuleChecker) Check(r *ModuleRegistry) (unexpected, missing []string) {
	for m := range r.loaded {
		if !c.expected[m] {
			unexpected = append(unexpected, m)
		}
	}
	for m := range c.expected {
		if !r.loaded[m] {
			missing = append(missing, m)
		}
	}
	sort.Strings(unexpected)
	sort.Strings(missing)
	return unexpected, missing
}

// DefaultRoverModules is a plausible module profile for the RPi3 rover
// (camera, GPIO, networking) used by the examples.
func DefaultRoverModules() []string {
	return []string{
		"bcm2835_codec", "bcm2835_v4l2", "brcmfmac", "cfg80211",
		"gpio_bcm_virt", "i2c_bcm2835", "snd_bcm2835", "spi_bcm2835",
		"uio_pdrv_genirq", "vc4",
	}
}

// RootkitName is the module name the simulated attack loads, after the
// simple-rootkit PoC the paper references.
func RootkitName(trial int) string { return fmt.Sprintf("simple_rootkit_%03d", trial) }
